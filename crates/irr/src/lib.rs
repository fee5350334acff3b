//! # bh-irr — community documentation corpus and dictionary mining
//!
//! Reproduces §4.1 of the paper ("Blackhole Communities Dictionary"):
//!
//! 1. [`corpus`] renders the topology's ground-truth blackhole offerings
//!    into *text* — synthetic IRR `aut-num` objects (RADb-style), operator
//!    web pages, and private-communication notes — interleaved with
//!    non-blackhole community documentation (relationship tags, traffic
//!    engineering, location communities) and plain noise. This substitutes
//!    for scraping RADb and operator websites.
//! 2. [`mining`] is the NLTK substitute: a tokenizer, a small stemmer for
//!    the keyword families ("blackhole", "null-route", "RTBH", "discard"),
//!    community-token extraction, and per-line association of community
//!    values with blackhole vs. other semantics. Decoys matter: the
//!    Level3-style `ASN:666` *peering tag* must not be mis-mined.
//! 3. [`dictionary`] assembles the documented [`BlackholeDictionary`]
//!    (communities → candidate providers, shared/ambiguous communities
//!    with non-public high-16-bits, per-provider metadata).
//! 4. [`inference`] implements the "Possibilities for Extended Dictionary"
//!    analysis (Fig. 2): a census of community-tag/prefix-length usage,
//!    the inferred-community extraction (exclusively >/24 usage +
//!    co-occurrence with documented blackhole communities + public-ASN
//!    high bits), and the Fig. 2 data series.
//! 5. [`classifier`] generalizes the dictionary into a multi-class
//!    community classifier (blackhole/action/location/informational à la
//!    Krenc et al.), combining the per-class documentation maps with
//!    census usage features, and distills the location/informational
//!    classes into [`NegativeControls`] that the inference session uses
//!    to suppress false candidate events (e.g. stolen-tag hijacks).
//!
//! Because ground truth is available, [`dictionary::DictionaryValidation`]
//! quantifies miner precision/recall — the paper could only spot-check
//! against published documentation.

pub mod classifier;
pub mod corpus;
pub mod dictionary;
pub mod inference;
pub mod mining;

pub use classifier::{ClassifiedCommunity, CommunityClassifier, NegativeControls};
pub use corpus::{Corpus, CorpusGenerator, IrrObject, PrivateNote, WebPage};
pub use dictionary::{
    BlackholeDictionary, ClassScore, ClassValidation, DictEntry, DictionaryValidation, ProviderMeta,
};
pub use inference::{CommunityPrefixCensus, Fig2Point, InferredCommunity};
pub use mining::{CommunityClass, DictionaryMiner, MinedCommunity, MinedKind};
