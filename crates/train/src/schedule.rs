//! Learning-rate schedules. The paper trains at a fixed rate; schedules
//! are provided for the ablation experiments and for production users who
//! run many incremental months and want late-stage decay.

/// A learning-rate schedule mapping an optimizer step to a multiplier of
/// the base rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Always the base rate.
    Constant,
    /// Linear warmup over the first `steps`, then the base rate.
    Warmup {
        /// Warmup length in steps.
        steps: u64,
    },
    /// Multiply by `factor` every `every` steps.
    StepDecay {
        /// Steps between decays.
        every: u64,
        /// Per-decay multiplier in `(0, 1]`.
        factor: f32,
    },
    /// Linear warmup then inverse-square-root decay (the Transformer
    /// classic).
    WarmupInvSqrt {
        /// Warmup length in steps.
        steps: u64,
    },
}

impl Schedule {
    /// The multiplier at 1-indexed optimizer step `step`.
    pub fn multiplier(&self, step: u64) -> f32 {
        let step = step.max(1);
        match *self {
            Schedule::Constant => 1.0,
            Schedule::Warmup { steps } => {
                if steps == 0 {
                    1.0
                } else {
                    (step as f32 / steps as f32).min(1.0)
                }
            }
            Schedule::StepDecay { every, factor } => {
                assert!(every > 0, "decay interval must be positive");
                assert!((0.0..=1.0).contains(&factor), "decay factor must be in (0,1]");
                factor.powi(((step - 1) / every) as i32)
            }
            Schedule::WarmupInvSqrt { steps } => {
                let w = steps.max(1) as f32;
                let s = step as f32;
                (s / w).min((w / s).sqrt())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        assert_eq!(Schedule::Constant.multiplier(1), 1.0);
        assert_eq!(Schedule::Constant.multiplier(1_000_000), 1.0);
    }

    #[test]
    fn warmup_ramps_then_holds() {
        let s = Schedule::Warmup { steps: 10 };
        assert!((s.multiplier(1) - 0.1).abs() < 1e-6);
        assert!((s.multiplier(5) - 0.5).abs() < 1e-6);
        assert_eq!(s.multiplier(10), 1.0);
        assert_eq!(s.multiplier(100), 1.0);
    }

    #[test]
    fn step_decay_halves() {
        let s = Schedule::StepDecay { every: 100, factor: 0.5 };
        assert_eq!(s.multiplier(1), 1.0);
        assert_eq!(s.multiplier(100), 1.0);
        assert_eq!(s.multiplier(101), 0.5);
        assert_eq!(s.multiplier(201), 0.25);
    }

    #[test]
    fn warmup_invsqrt_peaks_at_warmup_end() {
        let s = Schedule::WarmupInvSqrt { steps: 16 };
        let peak = s.multiplier(16);
        assert!(s.multiplier(8) < peak);
        assert!(s.multiplier(64) < peak);
        // decays like 1/sqrt: at 4x warmup, half the peak
        assert!((s.multiplier(64) - peak / 2.0).abs() < 1e-4);
    }

    #[test]
    fn multipliers_are_positive_and_bounded() {
        for sched in [
            Schedule::Constant,
            Schedule::Warmup { steps: 7 },
            Schedule::StepDecay { every: 3, factor: 0.9 },
            Schedule::WarmupInvSqrt { steps: 5 },
        ] {
            for step in 1..200 {
                let m = sched.multiplier(step);
                assert!(m > 0.0 && m <= 1.0 + 1e-6, "{sched:?} at {step}: {m}");
            }
        }
    }
}
