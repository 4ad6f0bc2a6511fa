//! Summary statistics and the comparison verdict.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The name used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return if a == b { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// Median, quartiles and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), the
    /// rule the spread bound is defined by.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (quantile(&v, 1), quantile(&v, 3))
        };
        Summary {
            n,
            median,
            q1,
            q3,
            min: v[0],
            max: v[n - 1],
        }
    }

    /// The distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points splitting sorted `v` into four,
/// by Python's exclusive method.
fn quantile(v: &[f64], i: i64) -> f64 {
    let (n, parts) = (v.len() as i64, 4);
    let m = n + 1;
    let j = (i * m / parts).clamp(1, n - 1);
    // Negative when the clamp moved `j` up: Python extrapolates then.
    let delta = (i * m - j * parts) as f64;
    let j = j as usize;
    (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
}

/// The verdict on one metric between a parent run set `a` and a change
/// run set `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so the medians cannot
    /// decide.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares two run sets of one metric against its bound. When either
/// side's spread exceeds the bound the metric is unresolved, unless
/// every run of one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let beats = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|&xv| y.iter().all(|&yv| better.worsening(yv, xv) < 0.0))
    };
    if sa.spread().max(sb.spread()) > bound {
        return if beats(b, a) {
            Verdict::Better
        } else if beats(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let w = better.worsening(sa.median, sb.median);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(verdict(&a, &a, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &slower, Better::Higher, 0.1), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [1.0, 1.5, 2.0, 2.5, 3.0];
        let overlapping = [1.2, 1.6, 2.1, 2.6, 3.1];
        assert_eq!(
            verdict(&a, &overlapping, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let disjoint = [4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(verdict(&a, &disjoint, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&disjoint, &a, Better::Lower, 0.1), Verdict::Better);
    }
}
