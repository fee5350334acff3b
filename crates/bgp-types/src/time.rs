//! Simulation time.
//!
//! The study spans December 2014 – March 2017 with daily aggregation
//! (Fig. 4) and sub-minute event dynamics (Fig. 8: >70% of ungrouped events
//! last ≤1 minute). [`SimTime`] is a Unix timestamp in seconds with civil
//! date helpers (Howard Hinnant's `civil_from_days` algorithm), so the
//! pipeline never touches the wall clock and stays fully deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s)
    }

    /// From minutes.
    pub const fn mins(m: u64) -> Self {
        SimDuration(m * 60)
    }

    /// From hours.
    pub const fn hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }

    /// From days.
    pub const fn days(d: u64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Seconds value.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours (for duration histograms, Fig. 8(b)).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (d, rem) = (self.0 / 86_400, self.0 % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

/// A point in simulated time: Unix seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The epoch (1970-01-01).
    pub const ZERO: SimTime = SimTime(0);

    /// From a Unix timestamp in seconds.
    pub const fn from_unix(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Build from a UTC civil date (days are converted with the standard
    /// days-from-civil algorithm; valid for all dates after 1970).
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Self {
        let days = days_from_civil(year, month, day);
        assert!(days >= 0, "SimTime cannot represent pre-1970 dates");
        SimTime(days as u64 * 86_400)
    }

    /// Unix seconds.
    pub const fn unix(self) -> u64 {
        self.0
    }

    /// Day index since the epoch (the Fig. 4 daily-bucketing key).
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400
    }

    /// Midnight of this timestamp's day.
    pub const fn day_start(self) -> SimTime {
        SimTime(self.day_index() * 86_400)
    }

    /// The UTC civil date `(year, month, day)`.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.day_index() as i64)
    }

    /// Seconds elapsed since `earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        let rem = self.0 % 86_400;
        write!(f, "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}", rem / 3600, (rem % 3600) / 60, rem % 60)
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Key dates of the study window, used by the workloads scenario driver.
pub mod study {
    use super::SimTime;

    /// Start of the longitudinal analysis (Fig. 4): December 2014.
    pub fn longitudinal_start() -> SimTime {
        SimTime::from_ymd(2014, 12, 1)
    }

    /// End of the study window: end of March 2017.
    pub fn longitudinal_end() -> SimTime {
        SimTime::from_ymd(2017, 4, 1)
    }

    /// Start of the visibility window (Tables 3/4, Figs. 5–8): August 2016.
    /// It ends with the study window, at [`longitudinal_end`].
    pub fn visibility_start() -> SimTime {
        SimTime::from_ymd(2016, 8, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(SimTime::from_ymd(1970, 1, 1), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.ymd(), (1970, 1, 1));
    }

    #[test]
    fn known_timestamps() {
        // 2014-12-01 00:00:00 UTC == 1417392000.
        assert_eq!(SimTime::from_ymd(2014, 12, 1).unix(), 1_417_392_000);
        // 2017-03-01 00:00:00 UTC == 1488326400.
        assert_eq!(SimTime::from_ymd(2017, 3, 1).unix(), 1_488_326_400);
        // 2016-02-29 exists (leap year).
        assert_eq!(SimTime::from_ymd(2016, 2, 29).unix(), 1_456_704_000);
        assert_eq!(SimTime::from_unix(1_456_704_000).ymd(), (2016, 2, 29));
    }

    #[test]
    fn ymd_round_trip_across_study_window() {
        let mut t = study::longitudinal_start();
        while t <= study::longitudinal_end() {
            let (y, m, d) = t.ymd();
            assert_eq!(SimTime::from_ymd(y, m, d), t);
            t += SimDuration::days(1);
        }
    }

    #[test]
    fn day_bucketing() {
        let t = SimTime::from_ymd(2016, 9, 20) + SimDuration::secs(13 * 3600 + 45 * 60 + 10);
        assert_eq!(t.day_start(), SimTime::from_ymd(2016, 9, 20));
        assert_eq!(t.day_index(), SimTime::from_ymd(2016, 9, 20).unix() / 86_400);
    }

    #[test]
    fn arithmetic_and_since() {
        let a = SimTime::from_ymd(2016, 8, 1);
        let b = a + SimDuration::mins(5);
        assert_eq!(b.since(a), SimDuration::secs(300));
        assert_eq!(b - a, SimDuration::mins(5));
        // Saturating: never negative.
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::days(1).as_secs(), 86_400);
        assert_eq!(SimDuration::hours(2).as_secs(), 7_200);
        assert_eq!(SimDuration::mins(5).as_secs(), 300);
        assert!((SimDuration::hours(16).as_hours_f64() - 16.0).abs() < 1e-9);
        assert!((SimDuration::secs(90).as_mins_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::secs(59).to_string(), "59s");
        assert_eq!(SimDuration::mins(5).to_string(), "5m00s");
        assert_eq!(SimDuration::hours(16).to_string(), "16h00m00s");
        assert_eq!(SimDuration::days(2).to_string(), "2d00h00m00s");
        assert_eq!(
            (SimTime::from_ymd(2016, 9, 20) + SimDuration::secs(13 * 3600 + 45 * 60 + 10))
                .to_string(),
            "2016-09-20 13:45:10"
        );
    }

    #[test]
    fn study_window_ordering() {
        assert!(study::longitudinal_start() < study::visibility_start());
        assert!(study::visibility_start() < study::longitudinal_end());
    }
}
