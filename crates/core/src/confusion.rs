//! Ground-truth scoring: confusion matrices over inferred events.
//!
//! The adversarial workloads (`bh-workloads`) know exactly what they
//! injected — every blackhole request, hijack, leak, and
//! traffic-engineering announcement becomes a [`TruthLabel`] carrying
//! the prefix, the active window, and whether the detector *should*
//! fire on it. This module scores an inference run against those
//! labels:
//!
//! * a label with `expect_detection` matched by at least one event is a
//!   **true positive**; unmatched, a **false negative**;
//! * an event matching no expected label is a **false positive**,
//!   broken down by the *kind* of adversarial traffic it overlapped
//!   (hijack, route leak, re-routing) or `unlabeled` when it matched
//!   nothing at all;
//! * precision/recall fall out of the counts.
//!
//! Matching is exact on prefix and overlap-with-slack on time
//! ([`LABEL_SLACK`], a constant): the detector closes events at the last
//! tagged update it saw, which can trail the planned withdraw by one
//! propagation round.
//!
//! [`ConfusionAccumulator`] implements [`EventAccumulator`], so scoring
//! streams through the same one-pass machinery as every paper metric;
//! its `fold` is the batch form.

use std::collections::BTreeMap;
use std::fmt;

use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};

use crate::accumulate::EventAccumulator;
use crate::events::BlackholeEvent;

/// What kind of injected traffic a [`TruthLabel`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelKind {
    /// A genuine RTBH request (the cooperative signal).
    Blackhole,
    /// A sub-prefix hijack carrying stolen trigger communities.
    Hijack,
    /// A leaked or mis-scoped tagged route (leak-vs-blackhole stress).
    RouteLeak,
    /// Prepending-based traffic engineering (the re-routing
    /// alternative to blackholing; a negative control).
    Reroute,
    /// An announcement decorated with stolen non-blackhole *tag*
    /// communities (location/informational) — must never be inferred as
    /// blackholing; the classifier's negative controls suppress it.
    Tagged,
}

impl LabelKind {
    pub fn label(self) -> &'static str {
        match self {
            LabelKind::Blackhole => "blackhole",
            LabelKind::Hijack => "hijack",
            LabelKind::RouteLeak => "route-leak",
            LabelKind::Reroute => "reroute",
            LabelKind::Tagged => "tagged",
        }
    }
}

/// One simulator-side ground-truth annotation: what was injected on
/// `prefix` during `[start, end]`, and whether the detector should
/// report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthLabel {
    pub prefix: Ipv4Prefix,
    pub start: SimTime,
    pub end: SimTime,
    pub kind: LabelKind,
    /// `true` for blackhole events the detector is expected to find;
    /// `false` for adversarial traffic where any matching detection is
    /// a false positive.
    pub expect_detection: bool,
}

impl TruthLabel {
    fn overlaps(&self, event: &BlackholeEvent) -> bool {
        if event.prefix != self.prefix {
            return false;
        }
        let event_end = event.end.unwrap_or(SimTime(u64::MAX));
        let label_start = SimTime(self.start.0.saturating_sub(LABEL_SLACK.0));
        let label_end = SimTime(self.end.0.saturating_add(LABEL_SLACK.0));
        event.start <= label_end && event_end >= label_start
    }
}

/// Time slack added to both ends of each label window before overlap
/// matching: one propagation round plus the session's event-coalescing
/// horizon comfortably fit in ten minutes at every study scale.
pub const LABEL_SLACK: SimDuration = SimDuration::mins(10);

/// The scored outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionReport {
    /// Scenario name (workload-provided, for display).
    pub scenario: String,
    /// Labels with `expect_detection`.
    pub expected: usize,
    /// Expected labels matched by at least one event.
    pub true_positives: usize,
    /// Expected labels no event matched.
    pub false_negatives: usize,
    /// Total inferred events observed.
    pub detected_events: usize,
    /// Events matching no expected label.
    pub false_positives: usize,
    /// False positives broken down by the adversarial label kind they
    /// overlapped.
    pub fp_by_kind: BTreeMap<LabelKind, usize>,
    /// False positives overlapping no label of any kind.
    pub fp_unlabeled: usize,
}

impl ConfusionReport {
    /// Fraction of detections that were real (1.0 when nothing was
    /// detected — no detections means no false alarms).
    pub fn precision(&self) -> f64 {
        if self.detected_events == 0 {
            1.0
        } else {
            (self.detected_events - self.false_positives) as f64 / self.detected_events as f64
        }
    }

    /// Fraction of expected blackholes found (1.0 when nothing was
    /// expected).
    pub fn recall(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.expected as f64
        }
    }

    /// Perfect score: every expectation met, no false alarms.
    pub fn is_perfect(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

impl fmt::Display for ConfusionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario: {}", self.scenario)?;
        writeln!(
            f,
            "  expected {:>5}   detected {:>5}   precision {:>6.3}   recall {:>6.3}",
            self.expected,
            self.detected_events,
            self.precision(),
            self.recall()
        )?;
        writeln!(
            f,
            "  TP {:>5}   FN {:>5}   FP {:>5}",
            self.true_positives, self.false_negatives, self.false_positives
        )?;
        if self.false_positives > 0 {
            write!(f, "  FP breakdown:")?;
            for (kind, n) in &self.fp_by_kind {
                write!(f, " {}={}", kind.label(), n)?;
            }
            if self.fp_unlabeled > 0 {
                write!(f, " unlabeled={}", self.fp_unlabeled)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Streams inferred events against a fixed label set, producing a
/// [`ConfusionReport`]; the order of the events does not matter.
#[derive(Debug, Clone)]
pub struct ConfusionAccumulator {
    scenario: String,
    labels: Vec<TruthLabel>,
    matched: Vec<bool>,
    detected_events: usize,
    false_positives: usize,
    fp_by_kind: BTreeMap<LabelKind, usize>,
    fp_unlabeled: usize,
}

impl ConfusionAccumulator {
    pub fn new(scenario: impl Into<String>, labels: Vec<TruthLabel>) -> Self {
        let matched = vec![false; labels.len()];
        ConfusionAccumulator {
            scenario: scenario.into(),
            labels,
            matched,
            detected_events: 0,
            false_positives: 0,
            fp_by_kind: BTreeMap::new(),
            fp_unlabeled: 0,
        }
    }
}

impl EventAccumulator for ConfusionAccumulator {
    type Output = ConfusionReport;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.detected_events += 1;
        let mut hit_expected = false;
        let mut overlapped_kind: Option<LabelKind> = None;
        for (idx, label) in self.labels.iter().enumerate() {
            if !label.overlaps(event) {
                continue;
            }
            if label.expect_detection {
                self.matched[idx] = true;
                hit_expected = true;
            } else if overlapped_kind.is_none() {
                overlapped_kind = Some(label.kind);
            }
        }
        if hit_expected {
            return;
        }
        self.false_positives += 1;
        match overlapped_kind {
            Some(kind) => *self.fp_by_kind.entry(kind).or_insert(0) += 1,
            None => self.fp_unlabeled += 1,
        }
    }

    fn finalize(self) -> ConfusionReport {
        let expected = self.labels.iter().filter(|l| l.expect_detection).count();
        let true_positives = self
            .labels
            .iter()
            .zip(&self.matched)
            .filter(|(l, m)| l.expect_detection && **m)
            .count();
        ConfusionReport {
            scenario: self.scenario,
            expected,
            true_positives,
            false_negatives: expected - true_positives,
            detected_events: self.detected_events,
            false_positives: self.false_positives,
            fp_by_kind: self.fp_by_kind,
            fp_unlabeled: self.fp_unlabeled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::BlackholeEvent;

    fn event(prefix: &str, start: u64, end: Option<u64>) -> BlackholeEvent {
        BlackholeEvent {
            prefix: prefix.parse().unwrap(),
            providers: Default::default(),
            users: Default::default(),
            start: SimTime(start),
            end: end.map(SimTime),
            peer_count: 1,
            datasets: Default::default(),
            distances: Default::default(),
            bundled_detection: false,
        }
    }

    fn label(prefix: &str, start: u64, end: u64, kind: LabelKind, expect: bool) -> TruthLabel {
        TruthLabel {
            prefix: prefix.parse().unwrap(),
            start: SimTime(start),
            end: SimTime(end),
            kind,
            expect_detection: expect,
        }
    }

    #[test]
    fn perfect_run_scores_perfect() {
        let labels = vec![label("10.0.0.1/32", 1_000, 2_000, LabelKind::Blackhole, true)];
        let events = vec![event("10.0.0.1/32", 1_010, Some(1_900))];
        let report = ConfusionAccumulator::new("baseline", labels).fold(&events);
        assert!(report.is_perfect());
        assert_eq!(report.true_positives, 1);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn hijack_detection_is_a_classified_false_positive() {
        let labels = vec![
            label("10.0.0.1/32", 1_000, 2_000, LabelKind::Blackhole, true),
            label("20.0.0.7/32", 1_000, 2_000, LabelKind::Hijack, false),
        ];
        let events =
            vec![event("10.0.0.1/32", 1_010, Some(1_900)), event("20.0.0.7/32", 1_020, None)];
        let report = ConfusionAccumulator::new("hijack", labels).fold(&events);
        assert_eq!(report.true_positives, 1);
        assert_eq!(report.false_positives, 1);
        assert_eq!(report.fp_by_kind.get(&LabelKind::Hijack), Some(&1));
        assert_eq!(report.fp_unlabeled, 0);
        assert!(report.precision() < 1.0);
    }

    #[test]
    fn missed_expected_label_is_a_false_negative() {
        let labels = vec![label("10.0.0.1/32", 1_000, 2_000, LabelKind::Blackhole, true)];
        let report = ConfusionAccumulator::new("missed", labels).fold(&[]);
        assert_eq!(report.false_negatives, 1);
        assert_eq!(report.recall(), 0.0);
        assert_eq!(report.precision(), 1.0, "no detections, no false alarms");
    }

    #[test]
    fn slack_tolerates_trailing_events_but_not_strays() {
        let labels = vec![label("10.0.0.1/32", 10_000, 20_000, LabelKind::Blackhole, true)];
        // Ends 5 minutes after the planned withdraw: matched.
        let trailing = vec![event("10.0.0.1/32", 10_100, Some(20_300))];
        assert!(ConfusionAccumulator::new("s", labels.clone()).fold(&trailing).is_perfect());
        // Starts an hour later: a false positive on the same prefix.
        let stray = vec![event("10.0.0.1/32", 24_000, Some(25_000))];
        let report = ConfusionAccumulator::new("s", labels).fold(&stray);
        assert_eq!(report.false_positives, 1);
        assert_eq!(report.fp_unlabeled, 1);
        assert_eq!(report.false_negatives, 1);
    }

    #[test]
    fn out_of_order_observation_matches_sequential_fold() {
        let labels = vec![
            label("10.0.0.1/32", 1_000, 2_000, LabelKind::Blackhole, true),
            label("10.0.0.2/32", 1_000, 2_000, LabelKind::Blackhole, true),
            label("20.0.0.7/32", 1_000, 2_000, LabelKind::RouteLeak, false),
        ];
        let events = vec![
            event("10.0.0.1/32", 1_010, Some(1_900)),
            event("10.0.0.2/32", 1_020, Some(1_800)),
            event("20.0.0.7/32", 1_030, None),
        ];
        let sequential = ConfusionAccumulator::new("m", labels.clone()).fold(&events);

        // The second part (events 1 and 2) first, then the first.
        let mut acc = ConfusionAccumulator::new("m", labels);
        acc.observe(&events[1]);
        acc.observe(&events[2]);
        acc.observe(&events[0]);
        assert_eq!(acc.finalize(), sequential);
    }
}
