//! Geography: country assignment for ASes and IXPs.
//!
//! Figure 6 of the paper maps blackholing providers and users per country,
//! with Russia, the USA and Germany leading both, and Brazil/Ukraine in
//! the users' top-5. The weights below are shaped to reproduce those
//! rankings; the long tail covers the remaining major internet economies.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;

/// Country weight table for *provider-capable* networks (transit/access
/// heavy economies). Fig. 6(a): most blackholing providers are in RU, US,
/// DE.
pub const PROVIDER_COUNTRY_WEIGHTS: &[(&str, u32)] = &[
    ("RU", 20),
    ("US", 18),
    ("DE", 14),
    ("GB", 7),
    ("NL", 6),
    ("FR", 5),
    ("PL", 4),
    ("UA", 4),
    ("BR", 4),
    ("IT", 3),
    ("SE", 3),
    ("CH", 3),
    ("AT", 2),
    ("CZ", 2),
    ("JP", 2),
    ("HK", 2),
    ("SG", 2),
    ("AU", 2),
    ("CA", 2),
    ("ES", 2),
];

/// Country weight table for *edge* networks (hosters, enterprises —
/// potential blackholing users). Fig. 6(b): RU, US, DE lead; BR and UA
/// enter the top-5. §8: top hoster locations RU(46) US(30) DE(21) UA(18)
/// PL(10).
pub const USER_COUNTRY_WEIGHTS: &[(&str, u32)] = &[
    ("RU", 22),
    ("US", 16),
    ("DE", 12),
    ("BR", 9),
    ("UA", 8),
    ("PL", 6),
    ("NL", 4),
    ("GB", 4),
    ("FR", 4),
    ("IT", 3),
    ("TR", 3),
    ("CZ", 2),
    ("RO", 2),
    ("ES", 2),
    ("CA", 2),
    ("JP", 2),
    ("IN", 2),
    ("ID", 2),
    ("ZA", 1),
    ("AR", 1),
];

/// Countries hosting the major IXPs ("IXPs that provide blackholing
/// services are in major cities which are also telecommunication hubs,
/// particularly in Europe, USA, and Asia"; MSK-IX is called out).
pub const IXP_COUNTRY_WEIGHTS: &[(&str, u32)] = &[
    ("DE", 8),
    ("US", 7),
    ("RU", 6),
    ("NL", 5),
    ("GB", 4),
    ("FR", 3),
    ("HK", 3),
    ("SG", 2),
    ("JP", 2),
    ("BR", 2),
    ("PL", 2),
    ("IT", 2),
    ("SE", 1),
    ("CZ", 1),
    ("AT", 1),
];

/// Sample a country code from a weight table.
pub fn sample_country<R: Rng + ?Sized>(rng: &mut R, table: &[(&'static str, u32)]) -> &'static str {
    let dist = WeightedIndex::new(table.iter().map(|(_, w)| *w))
        .expect("weight tables are non-empty with positive weights");
    table[dist.sample(rng)].0
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(
                sample_country(&mut a, PROVIDER_COUNTRY_WEIGHTS),
                sample_country(&mut b, PROVIDER_COUNTRY_WEIGHTS)
            );
        }
    }

    #[test]
    fn heavy_countries_dominate_samples() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ru_us_de = 0;
        let n = 2000;
        for _ in 0..n {
            let c = sample_country(&mut rng, PROVIDER_COUNTRY_WEIGHTS);
            if matches!(c, "RU" | "US" | "DE") {
                ru_us_de += 1;
            }
        }
        // RU+US+DE carry 52/107 of the weight; allow slack.
        assert!(ru_us_de > n * 40 / 100, "got {ru_us_de}/{n}");
        assert!(ru_us_de < n * 60 / 100, "got {ru_us_de}/{n}");
    }

    #[test]
    fn user_table_includes_papers_top5() {
        let countries: Vec<_> = USER_COUNTRY_WEIGHTS.iter().map(|(c, _)| *c).collect();
        for c in ["RU", "US", "DE", "BR", "UA"] {
            assert!(countries.contains(&c));
        }
    }
}
