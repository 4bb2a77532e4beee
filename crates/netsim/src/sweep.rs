//! Saturation extraction from an injection-rate sweep: the highest
//! offered load a network still keeps up with (Figure 9's knee). The
//! sweeps themselves are lab specs (`results/specs/fig9.lab`); whether a
//! point kept up is the lab runner's verdict.

/// Outcome of saturation extraction from a sweep: distinguishes "the
/// network saturated at the very first measured rate" from "nothing was
/// swept at all", which a bare `Option<f64>` cannot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Saturation {
    /// The highest offered rate whose point was still stable.
    Stable(f64),
    /// Points were swept, but none was stable: the network was already
    /// saturated at the lowest measured rate. The payload is that
    /// lowest rate (saturation throughput is somewhere below it).
    SaturatedFromStart(f64),
    /// The sweep contained no points.
    NotSwept,
}

impl Saturation {
    /// Classifies `(offered_rate, stable)` pairs, in any order.
    pub fn classify(points: impl IntoIterator<Item = (f64, bool)>) -> Saturation {
        let mut best_stable: Option<f64> = None;
        let mut lowest_rate: Option<f64> = None;
        for (rate, stable) in points {
            lowest_rate = Some(lowest_rate.map_or(rate, |l: f64| l.min(rate)));
            if stable {
                best_stable = Some(best_stable.map_or(rate, |b: f64| b.max(rate)));
            }
        }
        match (best_stable, lowest_rate) {
            (Some(r), _) => Saturation::Stable(r),
            (None, Some(low)) => Saturation::SaturatedFromStart(low),
            (None, None) => Saturation::NotSwept,
        }
    }

    /// The extracted saturation throughput, when one exists.
    pub fn rate(self) -> Option<f64> {
        match self {
            Saturation::Stable(r) => Some(r),
            Saturation::SaturatedFromStart(_) | Saturation::NotSwept => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_is_last_stable_rate() {
        // In any order; the unstable tail does not count.
        let pts = [(0.3, false), (0.1, true), (0.2, true)];
        assert_eq!(Saturation::classify(pts), Saturation::Stable(0.2));
        assert_eq!(Saturation::classify(pts).rate(), Some(0.2));
    }

    #[test]
    fn saturated_from_start_vs_not_swept() {
        // As a bare rate the two read the same...
        let unstable = [(0.7, false), (0.5, false)];
        assert_eq!(Saturation::classify(unstable).rate(), None);
        assert_eq!(Saturation::classify([]).rate(), None);
        // ...the enum distinguishes them.
        assert_eq!(
            Saturation::classify(unstable),
            Saturation::SaturatedFromStart(0.5)
        );
        assert_eq!(Saturation::classify([]), Saturation::NotSwept);
    }
}
