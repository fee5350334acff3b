//! Text mining: the NLTK substitute.
//!
//! The paper "appl\[ies\] natural language processing techniques … to extract
//! all community values relevant for BGP blackholing by searching for
//! lemmas of certain text patterns, and certain keywords e.g. 'blackhole',
//! or 'null route'". This module implements the same idea from scratch:
//! tokenization, keyword stemming, community-token extraction, and
//! line-scoped association.

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, LargeCommunity};

use crate::corpus::Corpus;

/// What a mined community appears to be used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinedKind {
    /// Associated with blackhole/null-route/RTBH phrasing.
    Blackhole,
    /// Documented, but for some other purpose (TE, tags, location).
    Other,
}

/// Usage class of a documented community — the Krenc et al. taxonomy
/// refining [`MinedKind::Other`] into actionable classes.
///
/// The declaration order is the resolution precedence: when one
/// (provider, community) pair is observed under several classes, the
/// *smallest* (strongest) class wins, so `Blackhole` beats `Action`
/// beats `Location` beats `Informational`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommunityClass {
    /// Blackhole trigger (RTBH).
    Blackhole,
    /// Actionable traffic engineering: prepend, preference, export
    /// control.
    Action,
    /// Geographic/ingress location tagging.
    Location,
    /// Informational marking (relationship tags, provenance).
    Informational,
}

impl CommunityClass {
    /// All classes in precedence order.
    pub const ALL: [CommunityClass; 4] = [
        CommunityClass::Blackhole,
        CommunityClass::Action,
        CommunityClass::Location,
        CommunityClass::Informational,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CommunityClass::Blackhole => "blackhole",
            CommunityClass::Action => "action",
            CommunityClass::Location => "location",
            CommunityClass::Informational => "informational",
        }
    }
}

/// One mined community observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedCommunity {
    /// The network whose document mentioned it.
    pub asn: Asn,
    /// The classic community, if the token was `A:B`.
    pub community: Option<Community>,
    /// The large community, if the token was `A:B:C`.
    pub large: Option<LargeCommunity>,
    /// Mined semantics (binary; derived from `class`).
    pub kind: MinedKind,
    /// Mined usage class.
    pub class: CommunityClass,
    /// Minimum accepted prefix length, when the surrounding text
    /// documents one (e.g. "/25-/32 accepted").
    pub min_accepted_length: Option<u8>,
}

/// The miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DictionaryMiner;

/// Keyword stems whose presence marks a line as blackhole-related.
/// Stem matching subsumes "blackhole", "blackholing", "black-hole",
/// "null-route", "null route", "nullroute", "RTBH", "discard(s|ed|ing)".
const BLACKHOLE_STEMS: &[&str] = &["blackhol", "nullrout", "rtbh", "discard"];

/// Bigram stems: consecutive token pairs that together mark blackholing.
const BLACKHOLE_BIGRAMS: &[(&str, &str)] = &[("black", "hol"), ("null", "rout")];

/// Tokenize a line: lowercase, split on everything that is not
/// alphanumeric or ':' (kept so community tokens survive), dropping
/// empty tokens.
pub fn tokenize(line: &str) -> Vec<String> {
    line.to_lowercase()
        .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == ':'))
        .map(|t| t.trim_matches(':').to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

/// Strong blackhole stems: unambiguous even when class keywords appear
/// on the same line. `discard` is deliberately excluded — it is the weak
/// stem that non-blackhole prose ("we discard the MED on export") also
/// uses, which is exactly what the class-aware pass disambiguates.
const STRONG_BLACKHOLE_STEMS: &[&str] = &["blackhol", "nullrout", "rtbh"];

/// Does the token start with any blackhole stem?
fn is_blackhole_token(token: &str) -> bool {
    BLACKHOLE_STEMS.iter().any(|stem| token.starts_with(stem))
}

/// Does the token list contain blackhole phrasing (stems or bigrams)?
pub fn line_is_blackhole(tokens: &[String]) -> bool {
    if tokens.iter().any(|t| is_blackhole_token(t)) {
        return true;
    }
    line_has_blackhole_bigram(tokens)
}

fn line_has_blackhole_bigram(tokens: &[String]) -> bool {
    tokens
        .windows(2)
        .any(|w| BLACKHOLE_BIGRAMS.iter().any(|(a, b)| w[0].starts_with(a) && w[1].starts_with(b)))
}

/// Class hint carried by a single token, if any.
fn class_hint(token: &str) -> Option<CommunityClass> {
    if token.starts_with("prepend")
        || token == "preference"
        || token.starts_with("export")
        || token.starts_with("engineer")
    {
        return Some(CommunityClass::Action);
    }
    if token.starts_with("location")
        || token.starts_with("region")
        || token.starts_with("learn")
        || token.starts_with("ingress")
        || token.starts_with("presence")
    {
        return Some(CommunityClass::Location);
    }
    if token.starts_with("peering")
        || token.starts_with("customer")
        || token == "marks"
        || token.starts_with("tagged")
        || token.starts_with("informational")
    {
        return Some(CommunityClass::Informational);
    }
    None
}

/// Classify one line of documentation prose.
///
/// Strong blackhole stems win outright; otherwise the strongest class
/// keyword on the line decides; a lone weak `discard` still reads as
/// blackholing; anything left is informational.
pub fn classify_line(tokens: &[String]) -> CommunityClass {
    let strong =
        tokens.iter().any(|t| STRONG_BLACKHOLE_STEMS.iter().any(|stem| t.starts_with(stem)))
            || line_has_blackhole_bigram(tokens);
    if strong {
        return CommunityClass::Blackhole;
    }
    if let Some(best) = tokens.iter().filter_map(|t| class_hint(t)).min() {
        return best;
    }
    if tokens.iter().any(|t| t.starts_with("discard")) {
        return CommunityClass::Blackhole;
    }
    CommunityClass::Informational
}

/// Parse a community token: `A:B` (classic) or `A:B:C` (large).
pub fn parse_community_token(token: &str) -> (Option<Community>, Option<LargeCommunity>) {
    let parts: Vec<&str> = token.split(':').collect();
    match parts.as_slice() {
        [a, b] => {
            if let (Ok(a), Ok(b)) = (a.parse::<u16>(), b.parse::<u16>()) {
                return (Some(Community::from_parts(a, b)), None);
            }
            (None, None)
        }
        [a, b, c] => {
            if let (Ok(a), Ok(b), Ok(c)) = (a.parse::<u32>(), b.parse::<u32>(), c.parse::<u32>()) {
                return (None, Some(LargeCommunity::new(a, b, c)));
            }
            (None, None)
        }
        _ => (None, None),
    }
}

/// Extract a documented minimum accepted prefix length from tokens like
/// `25` in "/25-/32 accepted" (tokenizer strips '/'; we look for the
/// pattern `N` followed within the line by `32`).
fn extract_min_length(line: &str) -> Option<u8> {
    // Look for "/NN" occurrences; the smallest in 8..32 is the minimum
    // accepted length when the line also mentions 32 or "more specific".
    let mut lengths: Vec<u8> = Vec::new();
    let bytes = line.as_bytes();
    for (i, _) in line.match_indices('/') {
        let rest = &bytes[i + 1..];
        let digits: String =
            rest.iter().take_while(|b| b.is_ascii_digit()).map(|&b| b as char).collect();
        if let Ok(v) = digits.parse::<u8>() {
            if (8..=32).contains(&v) {
                lengths.push(v);
            }
        }
    }
    let min = lengths.iter().copied().min()?;
    if min < 32 && (lengths.contains(&32) || line.contains("more specific")) {
        Some(if line.contains("more specific than") { min + 1 } else { min })
    } else {
        None
    }
}

impl DictionaryMiner {
    /// Mine every document in the corpus with the class-aware pass.
    pub fn mine(&self, corpus: &Corpus) -> Vec<MinedCommunity> {
        self.mine_with(corpus, false)
    }

    /// Mine with the legacy stem-only pass: any line containing a
    /// blackhole stem — including the weak `discard` — is a blackhole
    /// line, everything else is informational. This is the
    /// dictionary-only baseline that class-aware mining and negative
    /// controls are scored against.
    pub fn mine_naive(&self, corpus: &Corpus) -> Vec<MinedCommunity> {
        self.mine_with(corpus, true)
    }

    fn mine_with(&self, corpus: &Corpus, naive: bool) -> Vec<MinedCommunity> {
        let mut out = Vec::new();
        for obj in &corpus.irr_objects {
            let remarks =
                obj.lines.iter().filter_map(|l| l.strip_prefix("remarks:")).map(str::trim);
            self.mine_lines(obj.asn, remarks, naive, &mut out);
        }
        for page in &corpus.web_pages {
            self.mine_lines(page.asn, page.paragraphs.iter().map(String::as_str), naive, &mut out);
        }
        // Private notes are structured and pre-validated.
        for note in &corpus.private_notes {
            for &community in &note.communities {
                out.push(MinedCommunity {
                    asn: note.asn,
                    community: Some(community),
                    large: None,
                    kind: MinedKind::Blackhole,
                    class: CommunityClass::Blackhole,
                    min_accepted_length: None,
                });
            }
            if let Some(large) = note.large {
                out.push(MinedCommunity {
                    asn: note.asn,
                    community: None,
                    large: Some(large),
                    kind: MinedKind::Blackhole,
                    class: CommunityClass::Blackhole,
                    min_accepted_length: None,
                });
            }
        }
        out
    }

    fn mine_lines<'a>(
        &self,
        asn: Asn,
        lines: impl Iterator<Item = &'a str>,
        naive: bool,
        out: &mut Vec<MinedCommunity>,
    ) {
        for line in lines {
            let tokens = tokenize(line);
            let class = if naive {
                if line_is_blackhole(&tokens) {
                    CommunityClass::Blackhole
                } else {
                    CommunityClass::Informational
                }
            } else {
                classify_line(&tokens)
            };
            let blackhole = class == CommunityClass::Blackhole;
            let min_len = extract_min_length(line);
            for token in &tokens {
                let (community, large) = parse_community_token(token);
                if community.is_none() && large.is_none() {
                    continue;
                }
                out.push(MinedCommunity {
                    asn,
                    community,
                    large,
                    kind: if blackhole { MinedKind::Blackhole } else { MinedKind::Other },
                    class,
                    min_accepted_length: if blackhole { min_len } else { None },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::IrrObject;

    fn mine_line(line: &str) -> Vec<MinedCommunity> {
        let obj = IrrObject { asn: Asn::new(3356), lines: vec![format!("remarks:     {line}")] };
        DictionaryMiner.mine(&Corpus { irr_objects: vec![obj], ..Corpus::default() })
    }

    #[test]
    fn tokenizer_keeps_communities() {
        let tokens = tokenize("use 3356:9999 to null-route attack traffic!");
        assert!(tokens.contains(&"3356:9999".to_string()));
        assert!(tokens.contains(&"null".to_string()));
        assert!(tokens.contains(&"rout".to_string()) || tokens.contains(&"route".to_string()));
    }

    #[test]
    fn stems_cover_keyword_family() {
        for line in [
            "blackhole community",
            "blackholing service",
            "black-hole filtering",
            "black hole trigger",
            "null route the prefix",
            "null-route attack traffic",
            "nullroute via 65535:666",
            "RTBH supported",
            "provider discards traffic",
        ] {
            assert!(line_is_blackhole(&tokenize(line)), "{line} should match");
        }
        for line in [
            "set local-preference 80",
            "prepend 3x to peers",
            "tagged on peering routes",
            "routes learned at FRA",
        ] {
            assert!(!line_is_blackhole(&tokenize(line)), "{line} must not match");
        }
    }

    #[test]
    fn community_token_parsing() {
        assert_eq!(parse_community_token("3356:9999").0, Some(Community::from_parts(3356, 9999)));
        assert_eq!(
            parse_community_token("196608:666:0").1,
            Some(LargeCommunity::new(196_608, 666, 0))
        );
        assert_eq!(parse_community_token("70000:1"), (None, None)); // >16-bit half
        assert_eq!(parse_community_token("foo:bar"), (None, None));
        assert_eq!(parse_community_token("80"), (None, None));
    }

    #[test]
    fn blackhole_line_mines_blackhole_kind() {
        let mined = mine_line("3356:9999 - remotely triggered black hole filtering");
        assert_eq!(mined.len(), 1);
        assert_eq!(mined[0].kind, MinedKind::Blackhole);
        assert_eq!(mined[0].community, Some(Community::from_parts(3356, 9999)));
    }

    #[test]
    fn decoy_line_mines_other_kind() {
        // The Level3 case: ASN:666 on a peering-tag line must be Other.
        let mined = mine_line("3356:666 tagged on peering routes");
        assert_eq!(mined.len(), 1);
        assert_eq!(mined[0].kind, MinedKind::Other);
        assert_eq!(mined[0].class, CommunityClass::Informational);
    }

    #[test]
    fn classify_line_covers_all_classes() {
        for (line, class) in [
            ("3356:9999 - remotely triggered black hole filtering", CommunityClass::Blackhole),
            ("3356:666 => discard all traffic toward the prefix", CommunityClass::Blackhole),
            ("3356:3001: prepend 3x towards all upstreams", CommunityClass::Action),
            ("do not export to peers when tagged 3356:3002", CommunityClass::Action),
            ("3356:2001 - route learned at FRA location", CommunityClass::Location),
            ("3356:2002 marks routes received in the US region", CommunityClass::Location),
            ("3356:101 marks customer routes", CommunityClass::Informational),
            ("3356:102: informational tag, no routing action", CommunityClass::Informational),
        ] {
            assert_eq!(classify_line(&tokenize(line)), class, "{line}");
        }
    }

    #[test]
    fn weak_discard_traps_fool_only_the_naive_pass() {
        // Class prose that borrows the weak "discard" stem: the naive
        // stem-only pass mislabels these as blackhole triggers, the
        // class-aware pass does not.
        for (line, class) in [
            ("3356:3001: lower preference and discard the MED on export", CommunityClass::Action),
            (
                "3356:2001 - learned at the FRA location; discarded from our public view",
                CommunityClass::Location,
            ),
            (
                "3356:101 marks peering routes; unwanted prefixes are discarded from the \
                 looking glass",
                CommunityClass::Informational,
            ),
        ] {
            assert!(line_is_blackhole(&tokenize(line)), "naive pass should bite on: {line}");
            assert_eq!(classify_line(&tokenize(line)), class, "{line}");
        }
    }

    #[test]
    fn naive_mining_keeps_the_legacy_stem_behavior() {
        let obj = IrrObject {
            asn: Asn::new(3356),
            lines: vec![
                "remarks:     3356:3001: lower preference and discard the MED on export".into()
            ],
        };
        let corpus = crate::corpus::Corpus {
            irr_objects: vec![obj],
            web_pages: vec![],
            private_notes: vec![],
        };
        let naive = DictionaryMiner.mine_naive(&corpus);
        assert_eq!(naive.len(), 1);
        assert_eq!(naive[0].class, CommunityClass::Blackhole);
        let aware = DictionaryMiner.mine(&corpus);
        assert_eq!(aware.len(), 1);
        assert_eq!(aware[0].class, CommunityClass::Action);
    }

    #[test]
    fn min_length_extraction() {
        let mined = mine_line("65535:666 blackhole accepted for /25-/32 announcements");
        assert_eq!(mined[0].min_accepted_length, Some(25));
        let mined = mine_line("65535:666 blackholing, only prefixes more specific than /24");
        assert_eq!(mined[0].min_accepted_length, Some(25));
        let mined = mine_line("65535:666 blackhole community");
        assert_eq!(mined[0].min_accepted_length, None);
    }

    #[test]
    fn numbers_that_look_like_lengths_do_not_confuse_parsing() {
        let mined = mine_line("blackhole: drop traffic, see RFC 7999 and 65535:666");
        assert_eq!(mined.len(), 1);
        assert_eq!(mined[0].community, Some(Community::BLACKHOLE));
    }

    #[test]
    fn large_community_blackhole_is_mined() {
        let mined = mine_line("large community 196608:666:0 triggers blackholing (RFC 8092)");
        assert_eq!(mined.len(), 1);
        assert_eq!(mined[0].large, Some(LargeCommunity::new(196_608, 666, 0)));
        assert_eq!(mined[0].kind, MinedKind::Blackhole);
    }

    #[test]
    fn non_remarks_lines_are_ignored_in_irr() {
        let obj = IrrObject {
            asn: Asn::new(1),
            lines: vec![
                "aut-num:     AS1".into(),
                "descr:       blackhole 1:666 in descr must be ignored".into(),
            ],
        };
        let out = DictionaryMiner.mine(&Corpus { irr_objects: vec![obj], ..Corpus::default() });
        assert!(out.is_empty());
    }
}
