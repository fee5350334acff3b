//! The paper's tables and figures, regenerated from one shared world and
//! checked against the paper's headline claims.
//!
//! [`registry`] lists the 16 artefacts in paper order, then the ablation
//! sections; each [`Section`] renders its table/series from a [`World`]
//! and carries its [`Claim`]s. [`evaluate`] gives every claim one
//! [`Verdict`]:
//!
//! * **hold** — the measured number is inside the paper's band;
//! * **expected-divergence** — outside the paper's band, inside the band
//!   pinned around this reproduction's value, with a written reason (the
//!   list of these is the open fidelity work, ROADMAP item 9);
//! * **not-measurable** — the substrate has no single number for it;
//! * **broken** — anything else, including a recorded divergence that
//!   starts holding, so the list stays current.
//!
//! Bands sit next to each claim. Paper bands: a range is taken verbatim,
//! `>X` is `[X, max]`, `~X %` is X ± 10 pp (± 5 pp below 20 %, ± 2 pp
//! below 5 %), other `~X` are ± 20–25 %; a "most"/"beats" shape is a
//! signed difference that must be positive. Pinned bands are the value
//! measured when the divergence was recorded ± 5 pp or ± 20 %.
//! `examples/reproduce.rs` prints the evaluation as `EXPERIMENTS.md`;
//! `tests/tests/paper_claims.rs` gates it and mutation-checks the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use bh_analysis::{count, mean, pct, render_series, Ecdf, Histogram, Series, Table};
use bh_bgp_types::community::Community;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{
    AnalyticsReport, DailyPoint, DetectionDistance, EventAccumulator, PeriodAccumulator,
    SessionBuilder, TypeRow, VisibilityRow,
};
use bh_dataplane::{
    fig9c_series, reputation_feed, run_experiment, service_histogram, EfficacyInput,
    EfficacyReport, FlowSim, HourPoint, PrefixProfile, ProbeMeasurement, ReputationDay,
    ScanGenerator, Service,
};
use bh_irr::{CommunityClass, CommunityClassifier, CommunityPrefixCensus};
use bh_mrt::MrtError;
use bh_routing::{table1, DataSource, DatasetStats};
use bh_topology::{DocumentationChannel, NetworkType, PolicyTable, RoaTable};
use bh_workloads::{CollectorArchive, ScenarioOutput, SPIKES};

use crate::pipeline::{Observed, Study, StudyRun, StudyScale};

/// Seed of every study of the run.
const SEED: u64 = 42;
/// Days and attacks/day of the Small visibility run behind Tables 1/3/4,
/// Figs. 2/5–9 and §8.
const VISIBILITY: (u64, f64) = (10, 8.0);
/// Attacks/day of the Tiny longitudinal run behind Fig. 4.
const LONGITUDINAL_RATE: f64 = 2.0;

/// Everything the sections read: the Small visibility run and what its
/// collectors saw, built once, plus the lazily built parts.
pub struct World {
    /// The Small study.
    pub study: Arc<Study>,
    /// Its visibility run: collector stream, ground truth, refdata, window.
    pub run: Arc<StudyRun>,
    /// The collectors' MRT archives of the run, written once.
    archives: Arc<[CollectorArchive]>,
    /// What the collectors saw: inference over `archives`.
    pub observed: Observed,
    lazy: Lazy,
}

/// The Full study (Table 2), Tiny longitudinal run (Fig. 4), traceroute
/// campaign (Fig. 9(a)/(b)) and per-peer-state ablation, built on first use.
#[derive(Default)]
struct Lazy {
    full: OnceLock<Study>,
    longitudinal: OnceLock<Result<(StudyRun, Observed), MrtError>>,
    efficacy: OnceLock<EfficacyReport>,
    without_per_peer_state: OnceLock<Result<Observed, MrtError>>,
}

impl World {
    /// Build the Small study, run its visibility scenario and observe it.
    pub fn build() -> Result<Self, MrtError> {
        let study = Arc::new(Study::build(StudyScale::Small, SEED));
        let run = Arc::new(study.visibility_run(VISIBILITY.0, VISIBILITY.1));
        let archives: Arc<[_]> = run.output.fleet_archives()?.into();
        let observed = study.observe_archives(&archives, &run, study.session(&run.refdata))?;
        Ok(World { study, run, archives, observed, lazy: Lazy::default() })
    }

    /// The world re-observed from its archives by `session` (ablations
    /// and gate mutants).
    pub fn reinfer(&self, session: SessionBuilder) -> Result<World, MrtError> {
        let observed = self.study.observe_archives(&self.archives, &self.run, session)?;
        let (study, run, archives) = (self.study.clone(), self.run.clone(), self.archives.clone());
        Ok(World { study, run, archives, observed, lazy: Lazy::default() })
    }

    fn full(&self) -> &Study {
        self.lazy.full.get_or_init(|| Study::build(StudyScale::Full, SEED))
    }

    fn longitudinal(&self) -> &Result<(StudyRun, Observed), MrtError> {
        self.lazy.longitudinal.get_or_init(|| {
            let study = Study::build(StudyScale::Tiny, SEED);
            let mut run = study.longitudinal_run(LONGITUDINAL_RATE);
            let archives = run.output.fleet_archives()?;
            // Fig. 4 reads only what the collectors saw: free the stream
            // before inferring, so it and the session never coexist.
            run.output.elems = Vec::new();
            let observed = study.observe_archives(&archives, &run, study.session(&run.refdata))?;
            Ok((run, observed))
        })
    }

    fn efficacy(&self) -> &EfficacyReport {
        let inputs = || efficacy_inputs(&self.study, &self.run.output);
        self.lazy.efficacy.get_or_init(|| run_experiment(&self.study.topology, &inputs(), 0xF19A))
    }

    /// The per-peer-state ablation, observed once for its render and claim.
    fn without_per_peer_state(&self) -> &Result<Observed, MrtError> {
        let session = || self.study.session(&self.run.refdata).per_peer_state(false);
        let ablated = || self.reinfer(session()).map(|w| w.observed);
        self.lazy.without_per_peer_state.get_or_init(ablated)
    }
}

/// `render` of an observation, or the error that stopped it.
fn observed_or<T>(observed: &Result<T, MrtError>, render: impl FnOnce(&T) -> String) -> String {
    observed.as_ref().map_or_else(|error| format!("observation failed: {error}\n"), render)
}

/// The outcome of checking one claim (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the paper's band.
    Holds,
    /// Outside the paper's band, inside the pinned band, reason recorded.
    ExpectedDivergence,
    /// No `measure`: the substrate lacks the quantity (reason recorded).
    NotMeasurable,
    /// Everything else.
    Broken,
}

impl Verdict {
    /// The label used in `EXPERIMENTS.md`.
    fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "hold",
            Verdict::ExpectedDivergence => "expected-divergence",
            Verdict::NotMeasurable => "not-measurable",
            Verdict::Broken => "broken",
        }
    }
}

/// One headline claim of the paper with its check.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The paper's statement.
    pub text: &'static str,
    /// Unit of `measure` (for a comparison, the difference taken).
    pub unit: &'static str,
    /// The measured number; `None` for a not-measurable claim.
    pub measure: Option<fn(&World) -> f64>,
    /// The paper's band, inclusive.
    pub paper: (f64, f64),
    /// The band pinned around this reproduction's value (read only when
    /// `reason` records a divergence).
    pub pinned: (f64, f64),
    /// Why the claim diverges or cannot be measured; `None` when it holds.
    pub reason: Option<&'static str>,
}

fn holds(text: &'static str, unit: &'static str, paper: (f64, f64), m: fn(&World) -> f64) -> Claim {
    Claim { text, unit, measure: Some(m), paper, pinned: paper, reason: None }
}

fn not_measurable(text: &'static str, reason: &'static str) -> Claim {
    let none = (f64::NAN, f64::NAN);
    Claim { text, unit: "", measure: None, paper: none, pinned: none, reason: Some(reason) }
}

impl Claim {
    /// Record that the claim misses the paper's band: where it lands and why.
    fn diverges(self, pinned: (f64, f64), reason: &'static str) -> Claim {
        Claim { pinned, reason: Some(reason), ..self }
    }

    /// Measure the claim on `world` and judge it.
    fn check(&self, world: &World) -> (Option<f64>, Verdict) {
        let Some(measure) = self.measure else { return (None, Verdict::NotMeasurable) };
        let value = measure(world);
        let within = |(lo, hi): (f64, f64)| lo <= value && value <= hi;
        let verdict = match (within(self.paper), self.reason) {
            (true, None) => Verdict::Holds,
            (false, Some(_)) if within(self.pinned) => Verdict::ExpectedDivergence,
            _ => Verdict::Broken,
        };
        (Some(value), verdict)
    }
}

/// One paper artefact or ablation: how to render it and what it claims.
pub struct Section {
    /// `id — description`; the id ("Table 3", "Fig. 7(c)", "§8") is unique.
    pub title: &'static str,
    /// Where the one pass computes the artefact mid-stream: the
    /// `AnalyticsReport` field(s) the `AnalyticsPipeline` fills, or the
    /// in-session census; `None` for artefacts derived from non-event
    /// data and for ablations.
    pub one_pass: Option<&'static str>,
    /// Not one of the paper's 16 artefacts.
    pub ablation: bool,
    /// Needs the longitudinal run or extra scenario runs: minutes in a
    /// debug build, so the tier-1 test leaves it to the release job.
    pub slow: bool,
    /// The rendered table/series.
    pub render: fn(&World) -> String,
    /// The paper's claims about it (pins of its own numbers for an ablation).
    pub claims: Vec<Claim>,
}

impl Section {
    /// The part of the title before the dash.
    pub fn id(&self) -> &'static str {
        self.title.split(" — ").next().unwrap_or(self.title)
    }
}

/// The result of [`evaluate`].
pub struct Evaluation {
    /// The report: every section's rendering and claim table, Markdown.
    pub markdown: String,
    /// `(section id, claim text, verdict)` per claim, in registry order.
    pub verdicts: Vec<(&'static str, &'static str, Verdict)>,
}

impl Evaluation {
    /// How many claims got `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|(_, _, v)| *v == verdict).count()
    }
}

/// Render `sections` from `world` and check every claim.
pub fn evaluate(world: &World, sections: &[Section]) -> Evaluation {
    let band = |(lo, hi): (f64, f64)| format!("[{lo}, {hi}]");
    let mut body = String::new();
    let mut verdicts = Vec::new();
    for section in sections {
        let _ = writeln!(body, "\n## {}\n", section.title);
        if let Some(one_pass) = section.one_pass {
            let _ = writeln!(body, "One-pass form: `{one_pass}`\n");
        }
        let rendered = (section.render)(world);
        let lines: Vec<&str> = rendered.trim_end().lines().map(str::trim_end).collect();
        let _ = writeln!(body, "```text\n{}\n```", lines.join("\n"));
        if !section.claims.is_empty() {
            body.push_str("\n| Claim | Measured | Paper band | Pinned band | State |\n");
            body.push_str("|---|---|---|---|---|\n");
        }
        for claim in &section.claims {
            let (value, verdict) = claim.check(world);
            verdicts.push((section.id(), claim.text, verdict));
            let measured = value.map_or("—".into(), |v| format!("{v:.1} {}", claim.unit));
            let paper = claim.measure.map_or("—".into(), |_| band(claim.paper));
            let pinned =
                claim.measure.and(claim.reason).map_or("—".into(), |_| band(claim.pinned));
            let reason = claim.reason.map_or(String::new(), |r| format!(" — {r}"));
            let _ = writeln!(
                body,
                "| {} | {measured} | {paper} | {pinned} | **{}**{reason} |",
                claim.text,
                verdict.label()
            );
        }
    }
    let mut evaluation = Evaluation { markdown: String::new(), verdicts };
    let summary =
        [Verdict::Holds, Verdict::ExpectedDivergence, Verdict::NotMeasurable, Verdict::Broken]
            .map(|v| format!("{} {}", evaluation.count(v), v.label()));
    evaluation.markdown = format!(
        "# EXPERIMENTS — the paper's tables and figures, regenerated and checked\n\n\
         Generated by `make reproduce`; do not edit. Seed {SEED}; Small study, {} days at {} \
         attacks/day; Full study (Table 2); Tiny study at {LONGITUDINAL_RATE} attacks/day \
         (Fig. 4). States and bands: `crates/bench/src/reproduce.rs`.\n\n**Summary:** {}\n{body}",
        VISIBILITY.0,
        VISIBILITY.1,
        summary.join(" · ")
    );
    evaluation
}

/// `part` of `whole`, in percent (NaN — hence broken — on an empty whole).
fn share(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole as f64
}

/// The value at the row `own` accepts minus the best value among the others.
fn lead<R>(rows: &[R], own: impl Fn(&R) -> bool, value: impl Fn(&R) -> f64) -> f64 {
    let best = |keep| rows.iter().filter(|r| own(r) == keep).map(&value).fold(f64::NAN, f64::max);
    best(true) - best(false)
}

fn table(title: &str, headers: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut table = Table::new(title, headers);
    for row in rows {
        table.row(row);
    }
    table.render()
}

fn cells<const N: usize>(label: &str, numbers: [usize; N]) -> Vec<String> {
    std::iter::once(label.to_string()).chain(numbers.map(count)).collect()
}

fn share_row(label: &str, n: usize, total: usize) -> Vec<String> {
    vec![label.to_string(), count(n), pct(n as f64 / total.max(1) as f64)]
}

/// A CDF as its inverse at fixed quantiles — `(q, value)` points.
fn cdf(name: &str, values: impl Iterator<Item = f64>) -> Series {
    let ecdf = Ecdf::new(values.collect());
    let points = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    Series::new(name, points.iter().filter_map(|&q| Some((q, ecdf.quantile(q)?))).collect())
}

// ---- Tables 1 and 2 ----

fn dataset_rows(w: &World) -> Vec<DatasetStats> {
    table1(&w.study.topology, &w.study.deployment())
}

fn render_table1(w: &World) -> String {
    let rows = dataset_rows(w);
    let rows = rows.iter().map(|r| {
        let numbers = [r.ip_peers, r.as_peers, r.unique_as_peers, r.prefixes, r.unique_prefixes];
        cells(r.source.label(), numbers)
    });
    let headers =
        ["Source", "#IP peers", "#AS peers", "#Unique AS peers", "#Prefixes", "#Unique prefixes"];
    table("Table 1: Overview of BGP dataset", &headers, rows)
}

/// Per network type: documented networks and their distinct communities
/// (mined dictionary), undocumented networks and communities (ground
/// truth — the paper's "inferred" parenthetical).
fn table2(full: &Study) -> BTreeMap<NetworkType, (usize, BTreeSet<Community>, usize, usize)> {
    let mut by_type: BTreeMap<_, (usize, BTreeSet<_>, usize, usize)> = BTreeMap::new();
    for (asn, meta) in full.dict.providers() {
        let ty = full.topology.as_info(asn).map_or(NetworkType::Unknown, |i| i.network_type);
        let row = by_type.entry(ty).or_default();
        row.0 += 1;
        row.1.extend(meta.communities.iter().copied());
    }
    for info in full.topology.ases() {
        let offering = info.blackhole_offering.as_ref();
        let hidden = offering.filter(|o| o.documentation == DocumentationChannel::Undocumented);
        if let Some(offering) = hidden {
            let row = by_type.entry(info.network_type).or_default();
            row.2 += 1;
            row.3 += offering.communities.len();
        }
    }
    by_type
}

fn render_table2(w: &World) -> String {
    let by_type = table2(w.full());
    let mut rows: Vec<Vec<String>> = Vec::new();
    for ty in NetworkType::ALL {
        let (n, c, un, uc) = by_type.get(&ty).cloned().unwrap_or_default();
        rows.push(vec![ty.label().into(), format!("{n} ({un})"), format!("{} ({uc})", c.len())]);
    }
    let (n, un) = by_type.values().fold((0, 0), |(n, un), row| (n + row.0, un + row.2));
    rows.push(vec!["TOTAL unique".into(), format!("{n} ({un})"), String::new()]);
    let title = "Table 2: Documented blackhole communities (inferred in parentheses)";
    table(title, &["Network Type", "#Networks", "#Blackhole communities"], rows)
}

// ---- Tables 3 and 4 ----

fn render_table3(w: &World) -> String {
    let rows = w.observed.report.table3.iter().map(|r| {
        let numbers = [
            r.providers,
            r.unique_providers,
            r.users,
            r.unique_users,
            r.prefixes,
            r.unique_prefixes,
        ];
        let mut row = cells(&r.source, numbers);
        row.push(pct(r.direct_feed_fraction));
        row
    });
    let headers = [
        "Source",
        "#Bh providers",
        "#Unique",
        "#Bh users",
        "#Unique",
        "#Bh prefixes",
        "#Unique",
        "Direct feeds",
    ];
    format!(
        "{}ground truth: {} reactions, {} inferred events",
        table("Table 3: Blackhole dataset overview (IPv4)", &headers, rows),
        w.run.output.ground_truth.len(),
        w.observed.events.len()
    )
}

/// Table 3's per-platform rows (the ALL row aside).
fn platforms(w: &World) -> Vec<&VisibilityRow> {
    w.observed.report.table3.iter().filter(|r| r.source != "ALL").collect()
}

/// Distinct blackholed prefixes seen by any of `sources`.
fn prefix_union(w: &World, sources: [DataSource; 2]) -> f64 {
    let seen = sources.iter().filter_map(|s| w.observed.summary.per_dataset.get(s));
    seen.flat_map(|v| &v.prefixes).collect::<BTreeSet<_>>().len() as f64
}

fn render_table4(w: &World) -> String {
    let rows = w.observed.report.table4.iter().map(|r| {
        let mut row = cells(r.network_type.label(), [r.providers, r.users, r.prefixes]);
        row.push(pct(r.direct_feed_fraction));
        row
    });
    let headers = ["Network Type", "#Bh prov.", "#Bh users", "#Bh pref.", "Direct feed"];
    table("Table 4: Blackhole visibility by provider type (IPv4)", &headers, rows)
}

/// `ty`'s share of Table 4's column `f`, in percent.
fn table4_share(w: &World, ty: NetworkType, f: fn(&TypeRow) -> usize) -> f64 {
    let of_type = w.observed.report.table4.iter().filter(|r| r.network_type == ty).map(f).sum();
    share(of_type, w.observed.report.table4.iter().map(f).sum())
}

// ---- Figs. 2 and 4 ----

/// Occurrence mass of the blackhole (or other) tags per prefix length,
/// normalised to 1.
fn fig2_mass(w: &World, blackhole: bool) -> BTreeMap<u8, f64> {
    let points = w.observed.summary.census.fig2_series(&w.study.dict);
    let mut mass: BTreeMap<u8, f64> = BTreeMap::new();
    for p in points.iter().filter(|p| p.is_blackhole == blackhole) {
        *mass.entry(p.prefix_length).or_default() += p.fraction;
    }
    let total: f64 = mass.values().sum();
    mass.values_mut().for_each(|m| *m /= total);
    mass
}

/// Extended dictionary (§4.1): inferred candidates, and how many of them
/// are undocumented triggers in the ground truth.
fn inferred_candidates(w: &World) -> (usize, usize) {
    let inferred = w.observed.summary.census.infer_candidates(&w.study.dict, 3);
    let confirmed = inferred.iter().filter(|i| {
        let offering = w.study.topology.as_info(i.asn).and_then(|a| a.blackhole_offering.as_ref());
        offering.is_some_and(|o| {
            o.documentation == DocumentationChannel::Undocumented && o.is_trigger(i.community)
        })
    });
    (inferred.len(), confirmed.count())
}

fn render_fig2(w: &World) -> String {
    let series = |name, blackhole| {
        let mass = fig2_mass(w, blackhole);
        Series::new(name, mass.into_iter().map(|(len, m)| (len as f64, m)).collect())
    };
    let (inferred, confirmed) = inferred_candidates(w);
    format!(
        "{}extended dictionary: {inferred} inferred candidates, {confirmed} confirmed against \
         ground truth (paper: 111 communities / 102 ASes)",
        render_series(
            "Fig 2: share of tag-occurrence mass per prefix length",
            &[series("blackhole-tags", true), series("other-tags", false)]
        )
    )
}

/// Mean of the last 60 days over mean of the first 60.
fn growth(w: &World, f: fn(&DailyPoint) -> usize) -> f64 {
    let Ok((_, observed)) = w.longitudinal() else { return f64::NAN };
    let series = &observed.report.daily;
    let head = 60.min(series.len());
    let first: usize = series.iter().take(head).map(f).sum();
    let last: usize = series.iter().rev().take(head).map(f).sum();
    last as f64 / first as f64
}

fn render_fig4(w: &World) -> String {
    observed_or(w.longitudinal(), fig4_series)
}

fn fig4_series((run, observed): &(StudyRun, Observed)) -> String {
    let series = &observed.report.daily;
    let mean_of = |days: &[DailyPoint], f: fn(&DailyPoint) -> usize| {
        mean(&days.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let monthly = |name, f| {
        let points = series.chunks(30).map(|c| (c[0].day.day_index() as f64, mean_of(c, f)));
        Series::new(name, points.collect())
    };
    let mut out = render_series(
        "Fig 4: daily blackholing activity, 30-day means (x = first day, days since epoch)",
        &[
            monthly("providers", |p| p.providers),
            monthly("users", |p| p.users),
            monthly("prefixes", |p| p.prefixes),
        ],
    );
    // Each named attack day against the seven days before it.
    let first_day = series.first().map_or(0, |p| p.day.day_index());
    for spike in SPIKES {
        let day = SimTime::from_ymd(spike.year, spike.month, spike.day).day_index();
        let idx = day.saturating_sub(first_day) as usize;
        if (7..series.len()).contains(&idx) {
            let baseline = mean_of(&series[idx - 7..idx], |p| p.prefixes);
            let _ = writeln!(
                out,
                "spike {} ({}): prefixes {} vs 7-day baseline {baseline:.1}",
                spike.label, spike.description, series[idx].prefixes
            );
        }
    }
    let _ = writeln!(
        out,
        "events: {} inferred over {} days ({} ground-truth reactions)",
        observed.events.len(),
        run.output.days,
        run.output.ground_truth.len()
    );
    out
}

// ---- Figs. 5 and 6 ----

/// The prefix counts of the providers (or users) of type `ty`.
fn counts_of<K>(
    rows: &[(K, NetworkType, usize)],
    ty: NetworkType,
) -> impl Iterator<Item = f64> + '_ {
    rows.iter().filter(move |(_, t, _)| *t == ty).map(|(_, _, n)| *n as f64)
}

fn render_fig5(w: &World) -> String {
    let per_provider = [
        cdf(
            "transit/access",
            counts_of(&w.observed.report.prefixes_per_provider, NetworkType::TransitAccess),
        ),
        cdf("ixp", counts_of(&w.observed.report.prefixes_per_provider, NetworkType::Ixp)),
    ];
    let per_user = [NetworkType::Content, NetworkType::TransitAccess, NetworkType::Enterprise]
        .map(|ty| cdf(ty.label(), counts_of(&w.observed.report.prefixes_per_user, ty)));
    render_series("Fig 5a: #blackholed prefixes per provider, at CDF quantiles", &per_provider)
        + &render_series("Fig 5b: #blackholed prefixes per user, at CDF quantiles", &per_user)
}

/// Content networks' share of blackholed prefixes over their share of users.
fn content_disproportion(w: &World) -> f64 {
    let content: Vec<f64> =
        counts_of(&w.observed.report.prefixes_per_user, NetworkType::Content).collect();
    let all = &w.observed.report.prefixes_per_user;
    let prefixes = all.iter().map(|(_, _, n)| *n as f64).sum::<f64>();
    (content.iter().sum::<f64>() / prefixes) / (content.len() as f64 / all.len() as f64)
}

/// Countries by descending count, ties by name.
fn ranking(map: &BTreeMap<&'static str, usize>) -> Vec<(&'static str, usize)> {
    let mut ranking: Vec<_> = map.iter().map(|(c, n)| (*c, *n)).collect();
    ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    ranking
}

/// How many of `wanted` are among the first `n` of `map`'s ranking.
fn in_top(map: &BTreeMap<&'static str, usize>, n: usize, wanted: &[&str]) -> f64 {
    ranking(map).iter().take(n).filter(|(c, _)| wanted.contains(c)).count() as f64
}

fn render_fig6(w: &World) -> String {
    let providers = ranking(&w.observed.report.provider_countries);
    let users = ranking(&w.observed.report.user_countries);
    let rows = providers.iter().zip(&users).take(8).enumerate().map(|(i, ((pc, pn), (uc, un)))| {
        vec![(i + 1).to_string(), pc.to_string(), pn.to_string(), uc.to_string(), un.to_string()]
    });
    let headers = ["Rank", "Provider country", "#", "User country", "#"];
    table("Fig 6: top countries (providers | users)", &headers, rows)
}

// ---- Fig. 7 ----

/// The March-2017-style scan snapshot over every blackholed prefix.
fn scan_profiles(w: &World) -> Vec<PrefixProfile> {
    let prefixes: Vec<Ipv4Prefix> = w.observed.report.blackholed_prefixes.iter().copied().collect();
    ScanGenerator::new(0xCA5).profile_all(&prefixes)
}

/// Share of scanned prefixes `has` accepts, in percent.
fn scan_share(w: &World, has: fn(&PrefixProfile) -> bool) -> f64 {
    let profiles = scan_profiles(w);
    share(profiles.iter().filter(|p| has(p)).count(), profiles.len())
}

fn render_fig7a(w: &World) -> String {
    let profiles = scan_profiles(w);
    let (hist, none) = service_histogram(&profiles);
    let row = |s: &Service| share_row(s.label(), hist.get(s).copied().unwrap_or(0), profiles.len());
    let rows = Service::ALL.iter().map(row).chain([share_row("NONE", none, profiles.len())]);
    table("Fig 7a: services on blackholed prefixes", &["Service", "#Prefixes", "Share"], rows)
}

fn render_fig7b(w: &World) -> String {
    let hist = &w.observed.report.providers_per_event;
    let total = hist.values().sum();
    let rows = hist.iter().map(|(k, n)| share_row(&k.to_string(), *n, total));
    table("Fig 7b: #blackholing providers per event", &["#Providers", "#Events", "Share"], rows)
}

/// Share of events with more than `k` providers, in percent.
fn events_with_more_providers(w: &World, k: usize) -> f64 {
    let hist = &w.observed.report.providers_per_event;
    share(hist.range(k + 1..).map(|(_, n)| n).sum(), hist.values().sum())
}

fn render_fig7c(w: &World) -> String {
    let hist = &w.observed.report.distance_histogram;
    let total = hist.values().sum();
    let rows = hist.iter().map(|(d, n)| match d {
        DetectionDistance::NoPath => share_row("no-path (bundled)", *n, total),
        DetectionDistance::Hops(h) => share_row(&h.to_string(), *n, total),
    });
    let headers = ["Distance", "#Detections", "Share"];
    table("Fig 7c: AS distance collector <-> blackholing provider", &headers, rows)
}

/// Share of detections at the distances `at` accepts, in percent.
fn distance_share(w: &World, at: fn(&DetectionDistance) -> bool) -> f64 {
    let hist = &w.observed.report.distance_histogram;
    share(hist.iter().filter(|(d, _)| at(d)).map(|(_, n)| n).sum(), hist.values().sum())
}

// ---- Fig. 8 ----

fn ungrouped_minutes(w: &World) -> impl Iterator<Item = f64> + '_ {
    w.observed.report.durations.iter().map(|d| d.as_mins_f64())
}

fn grouped_minutes(w: &World) -> impl Iterator<Item = f64> + '_ {
    w.observed.report.periods.iter().map(|p| p.duration(w.run.analytics.window_end).as_mins_f64())
}

/// Share of `values` at or below `limit`, in percent (NaN when empty).
fn share_le(values: impl Iterator<Item = f64>, limit: f64) -> f64 {
    let (le, all) = values.fold((0, 0), |(le, all), v| (le + usize::from(v <= limit), all + 1));
    share(le, all)
}

fn mean_event_seconds(report: &AnalyticsReport) -> f64 {
    mean(&report.durations.iter().map(|d| d.as_secs() as f64).collect::<Vec<_>>())
}

fn render_fig8(w: &World) -> String {
    let mut out = render_series(
        "Fig 8a: blackholing durations in minutes, at CDF quantiles",
        &[
            cdf("ungrouped events", ungrouped_minutes(w)),
            cdf("grouped periods (5min)", grouped_minutes(w)),
        ],
    );
    let mut hist = Histogram::logarithmic(1.0 / 60.0, 24.0 * 95.0, 16);
    hist.iter_mut()
        .for_each(|h| h.record_all(w.observed.report.durations.iter().map(|d| d.as_hours_f64())));
    out.push_str("# Fig 8b: duration histogram (hours, log bins)\n");
    for (lo, hi, n) in hist.iter().flat_map(Histogram::bins).filter(|(_, _, n)| *n > 0) {
        let _ = writeln!(out, "{lo:.3}\t{hi:.3}\t{n}");
    }
    out
}

// ---- Fig. 9 and §8 ----

/// Efficacy inputs from the ground truth: the first 150 distinct accepted
/// host-route blackholings, with every accepting provider dropping — and,
/// when an IXP route server accepted, its members too.
fn efficacy_inputs(study: &Study, output: &ScenarioOutput) -> Vec<EfficacyInput> {
    let mut seen = BTreeSet::new();
    let accepted_hosts = output.ground_truth.iter().filter(|truth| {
        !truth.accepted.is_empty() && truth.prefix.is_host_route() && seen.insert(truth.prefix)
    });
    let inputs = accepted_hosts.map(|truth| {
        let mut dropping: BTreeSet<_> = truth.accepted.iter().copied().collect();
        for ixp in study.topology.ixps() {
            if truth.accepted.contains(&ixp.route_server_asn) {
                dropping.extend(ixp.members.iter().copied());
            }
        }
        dropping.remove(&truth.user);
        EfficacyInput { prefix: truth.prefix, user: truth.user, dropping }
    });
    inputs.take(150).collect()
}

type Delta = fn(&ProbeMeasurement) -> i64;

fn path_deltas(w: &World, title: &str, after_during: Delta, control: Delta) -> String {
    let report = w.efficacy();
    let series =
        |name, delta: Delta| cdf(name, report.measurements.iter().map(move |m| delta(m) as f64));
    format!(
        "{}events measured {} / skipped {}",
        render_series(
            title,
            &[series("after - during", after_during), series("control - blackholed", control)]
        ),
        report.measured_events,
        report.skipped_events
    )
}

fn render_fig9a(w: &World) -> String {
    let title = "Fig 9a: IP-level path-length differences in hops, at CDF quantiles";
    path_deltas(
        w,
        title,
        ProbeMeasurement::ip_delta_after_during,
        ProbeMeasurement::ip_delta_control,
    )
}

fn render_fig9b(w: &World) -> String {
    let title = "Fig 9b: AS-level path-length differences in hops, at CDF quantiles";
    path_deltas(
        w,
        title,
        ProbeMeasurement::as_delta_after_during,
        ProbeMeasurement::as_delta_control,
    )
}

/// One week of traffic at the largest IXP toward the figure's four
/// highest-volume blackholed prefixes.
fn ixp_flows(w: &World) -> Option<(FlowSim, BTreeMap<Ipv4Prefix, Vec<HourPoint>>)> {
    let ixp = w.study.topology.ixps().iter().max_by_key(|ixp| ixp.members.len())?;
    let prefix = |i: u32| Ipv4Prefix::from_raw((60 << 24) | ((10 + i) << 16) | (i + 1), 32);
    let prefixes: Vec<Ipv4Prefix> = (0..4).map(prefix).collect();
    let mut sim = FlowSim::new(ixp, 0.34, 0xF19C);
    let series = fig9c_series(&mut sim, SimTime::from_ymd(2017, 3, 20), &prefixes, 12);
    Some((sim, series))
}

/// Dropped share of all sampled packets, in percent.
fn dropped_share(w: &World) -> f64 {
    let Some((_, series)) = ixp_flows(w) else { return f64::NAN };
    let sum = |f: fn(&HourPoint) -> u64| series.values().flatten().map(f).sum::<u64>() as usize;
    share(sum(|p| p.dropped), sum(|p| p.dropped + p.forwarded))
}

fn render_fig9c(w: &World) -> String {
    let Some((sim, series)) = ixp_flows(w) else { return "topology has no IXP".into() };
    let rows = series.iter().flat_map(|(prefix, points)| {
        let every_12th = points.iter().enumerate().step_by(12);
        every_12th.map(move |(h, p)| {
            cells(&prefix.to_string(), [h, p.dropped as usize, p.forwarded as usize])
        })
    });
    format!(
        "{}dropping members: {} of {}",
        table(
            "Fig 9c: sampled packets to blackholed prefixes, every 12th hour of one week",
            &["Prefix", "Hour", "Dropped", "Forwarded"],
            rows
        ),
        sim.members().iter().filter(|m| m.ignores.is_none()).count(),
        sim.members().len()
    )
}

/// Two weeks of the CDN security feed, scaled the way the paper's
/// population scales (20 K blackholed prefixes in March 2017).
fn feed() -> Vec<ReputationDay> {
    reputation_feed(0x5EC8, 14, 20_000)
}

fn feed_mean(f: fn(&ReputationDay) -> u32) -> f64 {
    mean(&feed().iter().map(|d| f(d) as f64).collect::<Vec<_>>())
}

fn render_sec8(w: &World) -> String {
    let rows = feed().into_iter().map(|d| {
        [d.day, d.probers, d.scanners, d.both, d.login_attempts].map(|n| n.to_string()).to_vec()
    });
    format!(
        "{}prober share of daily matches {:.0}% (paper: >90%); this run blackholed {} prefixes",
        table(
            "Sec 8: daily suspicious-activity matches among blackholed IPs",
            &["Day", "Probers", "Scanners", "Both", "Login attempts"],
            rows
        ),
        100.0 * feed_mean(|d| d.probers) / feed_mean(|d| d.probers + d.scanners - d.both),
        w.observed.report.blackholed_prefixes.len()
    )
}

// ---- Ablations ----

fn render_grouping_sweep(w: &World) -> String {
    let events = &w.observed.events;
    let line = |mins: u64| {
        let periods = PeriodAccumulator::new(SimDuration::mins(mins)).fold(events).len();
        format!("timeout {mins:>2} min -> {periods} periods from {} events\n", events.len())
    };
    [1, 5, 15, 60].map(line).concat()
}

fn render_per_peer_state(w: &World) -> String {
    observed_or(w.without_per_peer_state(), |ablated| {
        format!(
            "mean event duration with per-peer state {:.0} s ({} events) vs without {:.0} s ({} \
             events): collapsing peers lets the first de-activation close the event",
            mean_event_seconds(&w.observed.report),
            w.observed.events.len(),
            mean_event_seconds(&ablated.report),
            ablated.events.len()
        )
    })
}

/// Mean event duration with per-peer state minus without.
fn per_peer_state_gain(w: &World) -> f64 {
    let without = w.without_per_peer_state().as_ref().map(|o| mean_event_seconds(&o.report));
    without.map_or(f64::NAN, |without| mean_event_seconds(&w.observed.report) - without)
}

fn render_bundling(w: &World) -> String {
    let ablated = w.reinfer(w.study.session(&w.run.refdata).bundling_detection(false));
    let no_path = |w: &World| distance_share(w, |d| *d == DetectionDistance::NoPath);
    observed_or(&ablated, |ablated| {
        format!(
            "events with bundling detection {} vs without {}; no-path share of detections \
             {:.1}% vs {:.1}%",
            w.observed.events.len(),
            ablated.observed.events.len(),
            no_path(w),
            no_path(ablated)
        )
    })
}

/// Elements the collectors see when the world's scenario runs with
/// `table` installed on the simulator.
fn elems_with(w: &World, table: &PolicyTable) -> usize {
    w.study.visibility_run_under(VISIBILITY.0, VISIBILITY.1, table).output.elems.len()
}

fn render_policy_overhead(w: &World) -> String {
    let mut rov = PolicyTable::new();
    rov.set_roas(RoaTable::strict_from_topology(&w.study.topology));
    let deployed = rov.deploy_rov_fraction(&w.study.topology, 0.5).len();
    format!(
        "{} announcements over {} days\nextensions off: {} elems\nempty table:    {} elems\n\
         ROV at {deployed} transit ASes (50%): {} elems — every /32 RTBH route is Invalid at a \
         deploying AS, so ROV changes propagation, not only import cost",
        w.run.output.announcements,
        w.run.output.days,
        w.run.output.elems.len(),
        elems_with(w, &PolicyTable::new()),
        elems_with(w, &rov)
    )
}

fn render_classifier(w: &World) -> String {
    // A census exercising every classifier path: documented triggers on
    // /32s with an undocumented co-occurring rider, documented tags of
    // every other class on coarse prefixes with a rider.
    let dict = &w.full().dict;
    let mut census = CommunityPrefixCensus::new();
    for (i, entry) in dict.entries().enumerate() {
        let hidden = Community::from_parts(4000 + i as u16, 666);
        census.record_repeated(&[entry.community, hidden], 32, 50);
    }
    for class in CommunityClass::ALL.into_iter().skip(1) {
        for (i, entry) in dict.class_entries(class).enumerate() {
            let rider = Community::from_parts(5000 + i as u16, 80);
            census.record_repeated(&[entry.community, rider], 20, 30);
        }
    }
    let classifier = CommunityClassifier;
    format!(
        "{} dictionary communities, {} census communities -> {} classified, {} negative controls",
        dict.community_count(),
        census.community_count(),
        classifier.classify_census(dict, &census).len(),
        classifier.negative_controls(dict, &census).len()
    )
}

// ---- The registry ----

const MAX: f64 = f64::INFINITY;

fn artefact(
    title: &'static str,
    one_pass: Option<&'static str>,
    render: fn(&World) -> String,
    claims: Vec<Claim>,
) -> Section {
    Section { title, one_pass, ablation: false, slow: false, render, claims }
}

fn ablation(title: &'static str, render: fn(&World) -> String, claims: Vec<Claim>) -> Section {
    Section { title, one_pass: None, ablation: true, slow: false, render, claims }
}

/// Every artefact of the paper's evaluation in paper order, then the
/// ablation sections.
pub fn registry() -> Vec<Section> {
    const SHORT_PATHS: &str =
        "a 230-AS topology has shorter paths than the Internet (Fig. 7(c): at most 5 AS hops)";
    const EMPTY_START: &str = "the Tiny adoption curve starts from 0–2 active providers a day, so \
        the first-60-days mean is near zero and every ratio overshoots";
    let table1 = vec![
        holds(
            "CDN sees multiple times more unique prefixes than public collectors",
            "unique prefixes, CDN − best other",
            (1.0, MAX),
            |w| lead(&dataset_rows(w), |r| r.source == DataSource::Cdn, |r| r.unique_prefixes as f64),
        )
        .diverges(
            (0.0, 0.0),
            "visibility derives from feed kind and an Internal (CDN) feed sees exactly what a Full \
             feed sees: the synthetic topology has no private CDN prefixes",
        ),
        holds(
            "PCH has the most IP peers; RIS/RV are core-biased",
            "IP peers, PCH − best other",
            (1.0, MAX),
            |w| lead(&dataset_rows(w), |r| r.source == DataSource::Pch, |r| r.ip_peers as f64),
        )
        .diverges(
            (-97.0, -65.0),
            "the Small collector config gives PCH one session per covered IXP route server (9) \
             where the real PCH peers with thousands of IXP members; CDN (90) leads instead",
        ),
    ];
    let table2_claims = vec![
        holds(
            "307 networks total, Transit/Access dominates (198)",
            "networks",
            (198.0, 198.0),
            |w| table2(w.full()).get(&NetworkType::TransitAccess).map_or(0, |r| r.0) as f64,
        ),
        holds("49 IXPs share ~2 communities (RFC 7999 majority)", "communities", (1.0, 3.0), |w| {
            table2(w.full()).get(&NetworkType::Ixp).map_or(0, |r| r.1.len()) as f64
        }),
        holds("~51% of community values use the ASN:666 convention", "%", (41.0, 61.0), |w| {
            let dict = &w.full().dict;
            let with_666 = dict.entries().filter(|e| e.community.value_part() == 666);
            share(with_666.count(), dict.entries().count())
        }),
    ];
    let table3 = vec![
        holds(
            "CDN observes the most blackholing providers (direct internal feeds)",
            "providers, CDN − best other",
            (1.0, MAX),
            |w| lead(&platforms(w), |r| r.source == "CDN", |r| r.providers as f64),
        ),
        holds(
            "CDN+PCH prefix coverage beats RIS/RV",
            "prefixes, CDN ∪ PCH − RIS ∪ RV",
            (1.0, MAX),
            |w| {
                prefix_union(w, [DataSource::Cdn, DataSource::Pch])
                    - prefix_union(w, [DataSource::Ris, DataSource::RouteViews])
            },
        ),
        holds(
            "PCH has the highest direct-feed fraction",
            "pp, PCH − best other",
            (0.1, 100.0),
            |w| lead(&platforms(w), |r| r.source == "PCH", |r| 100.0 * r.direct_feed_fraction),
        )
        .diverges(
            (-8.2, 0.0),
            "the 32 Small RIS/RV sessions sit on the transit core that offers blackholing, so \
             ~30% of the providers each platform sees feed it directly (paper: 4% for RIS)",
        ),
    ];
    let table4 = vec![
        holds(
            "Transit/Access providers carry ~90% of blackholed prefixes",
            "%",
            (80.0, 100.0),
            |w| table4_share(w, NetworkType::TransitAccess, |r| r.prefixes),
        )
        .diverges(
            (40.3, 50.3),
            "a reaction picks uniformly among the victim's blackholing-capable upstreams and \
             IXPs, so 8 IXPs carry 257 of the 416 prefixes; the split was never fitted",
        ),
        holds(
            "IXPs are second: ~10% of providers, ~60% of users",
            "% of providers",
            (5.0, 15.0),
            |w| table4_share(w, NetworkType::Ixp, |r| r.providers),
        )
        .diverges(
            (14.0, 24.0),
            "the Small topology has 12 IXPs among ~230 ASes, 10 of them offering blackholing — \
             over-represented against the paper's 49 of 307",
        ),
        holds("IXPs have a 100% direct-feed fraction", "%", (100.0, 100.0), |w| {
            let ixp = w.observed.report.table4.iter().find(|r| r.network_type == NetworkType::Ixp);
            ixp.filter(|r| r.providers > 0).map_or(f64::NAN, |r| 100.0 * r.direct_feed_fraction)
        }),
    ];
    let fig2 = vec![
        holds("blackhole communities ride almost exclusively on /32s", "%", (95.0, 100.0), |w| {
            100.0 * fig2_mass(w, true).get(&32).copied().unwrap_or(f64::NAN)
        }),
        holds("other communities ride on /24 or less-specific prefixes", "%", (80.0, 100.0), |w| {
            100.0 * fig2_mass(w, false).range(..=24).map(|(_, m)| m).sum::<f64>()
        }),
        holds(
            "inferred candidates: exclusively >/24 + co-occurrence",
            "% confirmed as undocumented triggers",
            (90.0, 100.0),
            |w| {
                let (inferred, confirmed) = inferred_candidates(w);
                share(confirmed, inferred)
            },
        ),
    ];
    let fig4 = vec![
        holds("providers/day roughly double", "× last 60 days ÷ first 60", (1.5, 3.5), |w| {
            growth(w, |p| p.providers)
        })
        .diverges((5.0, 7.4), EMPTY_START),
        holds("users/day grow ~4x", "× last 60 days ÷ first 60", (3.0, 5.0), |w| {
            growth(w, |p| p.users)
        })
        .diverges((10.7, 16.1), EMPTY_START),
        holds(
            "prefixes/day grow ~6x with attack-correlated spikes",
            "× last 60 days ÷ first 60",
            (4.5, 7.5),
            |w| growth(w, |p| p.prefixes),
        )
        .diverges((11.0, 16.6), EMPTY_START),
    ];
    let fig5 = vec![
        holds(
            "IXP provider CDF is more extreme at both ends than transit",
            "pp, IXP − transit share of providers with one prefix (paper 20 − 15)",
            (0.1, 100.0),
            |w| {
                share_le(counts_of(&w.observed.report.prefixes_per_provider, NetworkType::Ixp), 1.0)
                    - share_le(
                        counts_of(
                            &w.observed.report.prefixes_per_provider,
                            NetworkType::TransitAccess,
                        ),
                        1.0,
                    )
            },
        ),
        holds(
            "content users originate disproportionately many prefixes",
            "× share of prefixes ÷ share of users (paper 43 ÷ 18)",
            (1.2, 4.0),
            content_disproportion,
        )
        .diverges(
            (0.64, 0.97),
            "content networks are 41% of users here (paper 18%) with 4.2 distinct prefixes each \
             against 5.2 overall; the ×3 victim weight towards them does not move this ratio",
        ),
    ];
    let fig6 = vec![
        holds(
            "RU, US, DE lead both maps",
            "of 6 top-3 places held by RU, US, DE",
            (5.0, 6.0),
            |w| {
                in_top(&w.observed.report.provider_countries, 3, &["RU", "US", "DE"])
                    + in_top(&w.observed.report.user_countries, 3, &["RU", "US", "DE"])
            },
        )
        .diverges(
            (2.0, 4.0),
            "country weights follow the paper but a 230-AS sample puts GB and BR ahead of US",
        ),
        holds("BR and UA enter the users' top-5", "of BR, UA in the top-5", (2.0, 2.0), |w| {
            in_top(&w.observed.report.user_countries, 5, &["BR", "UA"])
        })
        .diverges((0.0, 1.0), "BR enters (3rd); UA ties for 6th in the 230-AS sample"),
    ];
    let fig7a = vec![
        holds("HTTP dominates (~53% of prefixes)", "%", (43.0, 63.0), |w| {
            scan_share(w, |p| p.services.contains(&Service::Http))
        }),
        holds("~60% of prefixes expose at least one service", "%", (50.0, 70.0), |w| {
            scan_share(w, |p| !p.services.is_empty())
        }),
        holds("tarpits accept everything (~4%)", "%", (2.0, 6.0), |w| scan_share(w, |p| p.tarpit)),
    ];
    let fig7b = vec![
        holds("~28% of events involve multiple providers", "%", (18.0, 38.0), |w| {
            events_with_more_providers(w, 1)
        }),
        holds("~2% involve more than 10", "%", (1.0, 3.0), |w| events_with_more_providers(w, 10))
            .diverges(
                (0.0, 0.5),
                "Small-topology ASes have at most three upstreams plus their IXPs: the largest \
                 event of the run has 4 providers",
            ),
    ];
    let fig7c = vec![
        holds("no-path (bundling) is the largest bucket (~50%)", "%", (40.0, 60.0), |w| {
            distance_share(w, |d| *d == DetectionDistance::NoPath)
        })
        .diverges(
            (9.2, 13.8),
            "bundled reactions (`BUNDLING_PROBABILITY` 0.5) add only ~4 pp — a bundled tag is a \
             no-path detection only at peers whose path misses the provider — and the other ~7 pp \
             are announcements tagged for several providers at once",
        ),
        holds("0-distance ≈ 20% (collector at the blackholing IXP)", "%", (10.0, 30.0), |w| {
            distance_share(w, |d| *d == DetectionDistance::Hops(0))
        }),
        holds("~30% propagate 1–6 hops", "%", (20.0, 40.0), |w| {
            distance_share(w, |d| matches!(d, DetectionDistance::Hops(1..=6)))
        })
        .diverges((58.6, 68.6), "the mass missing from the no-path bucket lands here"),
    ];
    let fig8 = vec![
        holds(">70% of ungrouped events last ≤1 minute", "%", (70.0, 100.0), |w| {
            share_le(ungrouped_minutes(w), 1.0)
        })
        .diverges(
            (44.9, 54.9),
            "probing reactions (`PROBING_PROBABILITY` 0.7) pulse ON for 20–100 s, so half of the \
             pulses end just above the one-minute mark",
        ),
        holds("≤4% of 5-minute-grouped periods are that short", "%", (0.0, 4.0), |w| {
            share_le(grouped_minutes(w), 1.0)
        }),
        not_measurable(
            "three regimes: minutes, long-lived, very long-lived",
            "a regime count depends on a clustering the paper does not state; the Fig. 8(b) \
             histogram above is rendered for inspection",
        ),
    ];
    let fig9a = vec![
        holds(">80% of paths terminate earlier during blackholing", "%", (80.0, 100.0), |w| {
            100.0 * w.efficacy().fraction_terminated_earlier()
        })
        .diverges(
            (66.9, 76.9),
            "72% of reactions ask a single upstream, so a multi-homed victim stays reachable \
             over the others: 28% of probe paths cross no dropping AS",
        ),
        holds("average shortening ≈ 5.9 IP hops", "IP hops", (4.9, 6.9), |w| {
            w.efficacy().mean_ip_shortening()
        })
        .diverges((3.6, 4.8), SHORT_PATHS),
    ];
    let fig9b = vec![
        holds("average shortening 2–4 AS hops", "AS hops", (2.0, 4.0), |w| {
            w.efficacy().mean_as_shortening()
        })
        .diverges((1.3, 1.9), SHORT_PATHS),
        holds("~16% dropped at destination AS or direct upstream", "%", (11.0, 21.0), |w| {
            100.0 * w.efficacy().fraction_dropped_at_edge()
        })
        .diverges(
            (56.5, 66.5),
            "ground-truth reactions ask the victim's direct upstreams, so the accepting provider \
             is the direct upstream on three paths of five",
        ),
    ];
    let fig9c = vec![
        holds(">50% of traffic to announced /32s dropped", "%", (50.0, 100.0), dropped_share).diverges(
            (0.0, 6.6),
            "`FlowSim::week_series` takes the first 12 members as senders; the heavy members among \
             them ignore the blackhole, so their traffic dominates",
        ),
        holds("~80% of leaked traffic from <10 members", "% from the top 10", (70.0, 90.0), |w| {
            let Some((sim, _)) = ixp_flows(w) else { return f64::NAN };
            100.0 * sim.leak_concentration().iter().take(10).map(|(_, s)| s).sum::<f64>()
        }),
        holds("~1/3 of traffic-sending ASes drop", "% of members", (23.0, 43.0), |w| {
            ixp_flows(w).map_or(f64::NAN, |(sim, _)| 100.0 * sim.dropping_member_fraction())
        }),
    ];
    let sec8 = vec![
        holds("400–900 daily matches, >90% probers", "daily matches", (400.0, 900.0), |_| {
            feed_mean(|d| d.probers + d.scanners - d.both)
        }),
        holds("500–800 daily login-attempt IPs", "IPs a day", (500.0, 800.0), |_| {
            feed_mean(|d| d.login_attempts)
        }),
        holds(
            "union ≈ 2% of blackholed prefixes",
            "% of the feed's 20 000 prefixes",
            (1.0, 4.0),
            |_| feed_mean(|d| d.probers + d.scanners - d.both) / 200.0,
        ),
    ];
    let per_peer_state = vec![
        holds(
            "this reproduction: mean event duration ≈ 1 890 s with per-peer state",
            "s",
            (1700.0, 2080.0),
            |w| mean_event_seconds(&w.observed.report),
        ),
        holds(
            "per-peer state lengthens the mean event duration",
            "s, with − without",
            (1.0, MAX),
            per_peer_state_gain,
        ),
    ];
    let slow = |section| Section { slow: true, ..section };
    vec![
        artefact("Table 1 — BGP dataset overview (March 2017)", None, render_table1, table1),
        artefact("Table 2 — documented blackhole communities", None, render_table2, table2_claims),
        artefact(
            "Table 3 — blackhole visibility per dataset (Aug 2016 – Mar 2017)",
            Some("table3"),
            render_table3,
            table3,
        ),
        artefact("Table 4 — visibility by provider type", Some("table4"), render_table4, table4),
        artefact(
            "Fig. 2 — community tag vs prefix length",
            Some("CommunityPrefixCensus (maintained in-session)"),
            render_fig2,
            fig2,
        ),
        slow(artefact(
            "Fig. 4 — longitudinal adoption (Dec 2014 – Mar 2017)",
            Some("daily"),
            render_fig4,
            fig4,
        )),
        artefact(
            "Fig. 5 — prefix-count CDFs per provider and user type",
            Some("prefixes_per_provider + prefixes_per_user"),
            render_fig5,
            fig5,
        ),
        artefact(
            "Fig. 6 — providers/users per country",
            Some("provider_countries + user_countries"),
            render_fig6,
            fig6,
        ),
        artefact(
            "Fig. 7(a) — services on blackholed IPs",
            Some("blackholed_prefixes (scan-input census)"),
            render_fig7a,
            fig7a,
        ),
        artefact(
            "Fig. 7(b) — providers per blackholing event",
            Some("providers_per_event"),
            render_fig7b,
            fig7b,
        ),
        artefact(
            "Fig. 7(c) — AS distance collector↔provider",
            Some("distance_histogram"),
            render_fig7c,
            fig7c,
        ),
        artefact("Fig. 8 — blackholing durations", Some("durations + periods"), render_fig8, fig8),
        artefact("Fig. 9(a) — IP-level path-length impact", None, render_fig9a, fig9a),
        artefact("Fig. 9(b) — AS-level path-length impact", None, render_fig9b, fig9b),
        artefact("Fig. 9(c) — IXP traffic to blackholed prefixes", None, render_fig9c, fig9c),
        artefact(
            "§8 — malicious activity of blackholed IPs",
            Some("blackholed_prefixes (reputation-input census)"),
            render_sec8,
            sec8,
        ),
        ablation("Ablation: grouping timeout — the §9 sweep", render_grouping_sweep, vec![]),
        ablation("Ablation: per-peer state — off", render_per_peer_state, per_peer_state),
        ablation("Ablation: bundling detection — off", render_bundling, vec![]),
        slow(ablation(
            "Ablation: policy extensions — off / empty table / ROV at 50 %",
            render_policy_overhead,
            vec![],
        )),
        ablation("Ablation: classifier — on the Full dictionary", render_classifier, vec![]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artefacts() -> Vec<Section> {
        registry().into_iter().filter(|s| !s.ablation).collect()
    }

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(artefacts().len(), 16);
        let ids: BTreeSet<&str> = registry().iter().map(Section::id).collect();
        assert_eq!(ids.len(), registry().len(), "section ids must be unique");
    }

    #[test]
    fn every_experiment_has_claims() {
        assert_eq!(artefacts().iter().map(|s| s.claims.len()).sum::<usize>(), 42);
        for section in registry() {
            assert!(
                section.ablation || !section.claims.is_empty(),
                "{} has no claims",
                section.id()
            );
            for claim in &section.claims {
                // Exactly one state: not-measurable (reason, no measure),
                // divergence (reason + an ordered pinned band), or holds.
                assert!(claim.reason.is_none_or(|r| !r.is_empty()), "{}: empty reason", claim.text);
                match (claim.measure, claim.reason) {
                    (None, reason) => assert!(reason.is_some(), "{}: no state", claim.text),
                    (Some(_), reason) => {
                        assert!(claim.paper.0 <= claim.paper.1, "{}: paper band", claim.text);
                        assert!(claim.pinned.0 <= claim.pinned.1, "{}: pinned band", claim.text);
                        assert!(reason.is_some() || claim.pinned == claim.paper, "{}", claim.text);
                    }
                }
            }
        }
    }

    #[test]
    fn event_derived_artifacts_have_one_pass_forms() {
        // Every artefact computed from inferred events streams through
        // the one-pass pipeline (or the in-session census); the
        // non-event artefacts are exactly the dataset overview, the
        // dictionary, and the data-plane figures.
        let batch_only: Vec<&str> =
            artefacts().iter().filter(|s| s.one_pass.is_none()).map(Section::id).collect();
        assert_eq!(batch_only, ["Table 1", "Table 2", "Fig. 9(a)", "Fig. 9(b)", "Fig. 9(c)"]);
    }
}
