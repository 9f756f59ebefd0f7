//! Simulated clocks.
//!
//! Every device advances its own clock by the modelled duration of each
//! kernel and transfer; the trainer joins them with barrier semantics
//! (everyone waits for the slowest, as the paper's per-iteration
//! synchronization does).

/// A monotonically advancing simulated clock, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    seconds: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.seconds
    }

    /// Advances by `dt` seconds and returns the new time.
    ///
    /// # Panics
    /// Panics if `dt` is negative or non-finite — simulated time never
    /// rewinds.
    pub fn advance(&mut self, dt: f64) -> f64 {
        assert!(dt >= 0.0 && dt.is_finite(), "bad time delta {dt}");
        self.seconds += dt;
        self.seconds
    }

    /// Moves the clock forward to `t` if `t` is later (barrier join).
    pub fn advance_to(&mut self, t: f64) {
        assert!(t.is_finite(), "bad barrier time {t}");
        if t > self.seconds {
            self.seconds = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.0);
        assert_eq!(c.now(), 1.5);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut c = SimClock::new();
        c.advance(2.0);
        c.advance_to(1.0);
        assert_eq!(c.now(), 2.0);
        c.advance_to(3.0);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    #[should_panic(expected = "bad time delta")]
    fn rejects_negative_dt() {
        SimClock::new().advance(-1.0);
    }
}
