//! # unimatch-faults
//!
//! The workspace's deterministic fault-injection plane: the robustness
//! counterpart to `unimatch-obs`. Production seams (checkpoint save/load,
//! ANN search, the serve batcher, the trainer step, the durable-training
//! commit points) declare **named injection points**; a test or chaos
//! harness arms a [`FaultPlan`] describing *which* points misbehave,
//! *how* (latency, I/O error, bit flip, crash), and *how often* — and the
//! hardened layers above are exercised against exactly the failures they
//! claim to survive.
//!
//! ## The no-op contract
//!
//! Fault injection is **off by default** and must cost nothing in
//! production:
//!
//! * the disarmed hot path is one relaxed atomic load plus a branch —
//!   the `overhead` integration test pins it the same way
//!   `crates/obs/tests/overhead.rs` pins the observability flag;
//! * while disarmed, no lock is taken, no clock is read, nothing
//!   allocates;
//! * arming is explicit ([`set_plan`]) and scoped ([`clear`]): nothing
//!   fires unless a test asked for it.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(plan seed, point name, hit
//! index)`: the *k*-th arrival at a point fires if and only if a
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c) hash of those
//! three values lands under the rule's probability. Re-running the same
//! workload against the same plan reproduces the same fault schedule —
//! per point, the decision *sequence* is fixed even when hits race across
//! threads (threads may interleave which request absorbs the k-th
//! decision, but the number and pattern of fires is pinned).
//!
//! ```
//! use unimatch_faults as faults;
//! use faults::{FaultKind, FaultPlan, FaultPoint, FaultRule};
//!
//! // nothing fires while disarmed
//! assert!(FaultPoint::should_fire("demo.point").is_none());
//!
//! faults::set_plan(FaultPlan {
//!     seed: 7,
//!     rules: vec![FaultRule::new("demo.point", FaultKind::IoError).with_probability(1.0)],
//! });
//! assert!(matches!(FaultPoint::should_fire("demo.point"), Some(FaultKind::IoError)));
//! faults::clear();
//! assert!(FaultPoint::should_fire("demo.point").is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod points;

pub use plan::{FaultKind, FaultPlan, FaultRule, PlanParseError};

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;

/// Whether any plan is armed. One relaxed load; this is the entire cost
/// of a disarmed injection point.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan and, for [`set_plan_for_this_thread`], the only thread
/// that sees it.
type Armed = (Arc<plan::ArmedPlan>, Option<ThreadId>);

fn plan_slot() -> &'static Mutex<Option<Armed>> {
    static SLOT: OnceLock<Mutex<Option<Armed>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn slot_lock() -> std::sync::MutexGuard<'static, Option<Armed>> {
    // A poisoned slot means a panic elsewhere (possibly an *injected*
    // crash mid-fire); the plan itself is still structurally sound.
    plan_slot().lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `plan` process-wide, replacing any previous plan (and its hit
/// counters). Fault decisions start fresh.
pub fn set_plan(plan: FaultPlan) {
    arm(plan, None);
}

/// [`set_plan`], but only the calling thread sees the plan: a point
/// reached from any other thread stays a no-op. This is how a unit test
/// arms a point that its neighbours in the same test binary also pass
/// through (every trainer steps through `train.step`, every loader
/// through `persist.load`) — they run on other threads, so they neither
/// absorb its fires nor are hit by them. The slot is still one per
/// process: tests that arm must not overlap each other.
pub fn set_plan_for_this_thread(plan: FaultPlan) {
    arm(plan, Some(std::thread::current().id()));
}

fn arm(plan: FaultPlan, only_thread: Option<ThreadId>) {
    let armed = Arc::new(plan::ArmedPlan::new(plan));
    *slot_lock() = Some((armed, only_thread));
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection. Points return to the pure no-op path.
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    *slot_lock() = None;
}

/// Whether a plan is currently armed. One relaxed atomic load; hot loops
/// may call this freely.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Total faults fired since the current plan was armed (all points).
pub fn fired_total() -> u64 {
    slot_lock().as_ref().map_or(0, |(p, _)| p.fired_total())
}

/// A named injection point. Declare one per seam:
///
/// ```
/// use unimatch_faults::FaultPoint;
/// const SEARCH: FaultPoint = FaultPoint::new("ann.search");
/// SEARCH.inject_latency(); // no-op unless a plan targets "ann.search"
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FaultPoint(&'static str);

impl FaultPoint {
    /// Declares a point named `name`. Names are dot-separated by
    /// convention (`layer.operation`), e.g. `persist.load`.
    pub const fn new(name: &'static str) -> FaultPoint {
        FaultPoint(name)
    }

    /// The point's name.
    pub fn name(&self) -> &'static str {
        self.0
    }

    /// Consults the armed plan for point `name`: returns the fault to
    /// inject at this hit, or `None`. This is the primitive the typed
    /// helpers below build on; while disarmed it is a single relaxed
    /// load + branch.
    #[inline]
    pub fn should_fire(name: &'static str) -> Option<FaultKind> {
        if !armed() {
            return None;
        }
        Self::fire_slow(name)
    }

    #[cold]
    fn fire_slow(name: &'static str) -> Option<FaultKind> {
        let (plan, only_thread) = slot_lock().clone()?;
        if only_thread.is_some_and(|t| t != std::thread::current().id()) {
            return None;
        }
        plan.decide(name)
    }

    /// Instance form of [`FaultPoint::should_fire`].
    #[inline]
    pub fn fire(&self) -> Option<FaultKind> {
        Self::should_fire(self.0)
    }

    /// Sleeps for the planned duration if a latency fault fires here.
    /// Returns the injected microseconds (0 when nothing fired).
    #[inline]
    pub fn inject_latency(&self) -> u64 {
        match self.fire() {
            Some(FaultKind::LatencyUs(us)) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                us
            }
            _ => 0,
        }
    }

    /// Returns an injected I/O error if one fires here. The error kind is
    /// [`io::ErrorKind::Interrupted`] — a *transient* kind, so retry
    /// wrappers treat it as retryable (that is the scenario the plan is
    /// simulating).
    #[inline]
    pub fn io_error(&self) -> Option<io::Error> {
        match self.fire() {
            Some(FaultKind::IoError) => Some(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected I/O fault at {}", self.0),
            )),
            _ => None,
        }
    }

    /// Flips one deterministic bit of `bytes` if a bit-flip fault fires
    /// here (the position is derived from the plan seed and the hit
    /// index). Returns whether a flip happened. Empty slices are never
    /// touched.
    #[inline]
    pub fn corrupt(&self, bytes: &mut [u8]) -> bool {
        match self.fire() {
            Some(FaultKind::BitFlip) if !bytes.is_empty() => {
                let h = plan::mix(self.0.len() as u64 ^ bytes.len() as u64 ^ 0xb17_f11b);
                let pos = (h % bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << ((h >> 32) % 8);
                true
            }
            _ => false,
        }
    }

    /// Panics with a recognizable message if a crash fault fires here —
    /// the in-process stand-in for `kill -9` used by the durable-training
    /// tests (the panic is caught at the test boundary and the process
    /// state thrown away; only what reached disk survives).
    #[inline]
    pub fn crash_point(&self) {
        if let Some(FaultKind::Crash) = self.fire() {
            panic!("injected crash at fault point {}", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global plan.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _guard = test_lock();
        clear();
        for _ in 0..100 {
            assert!(FaultPoint::should_fire("x.y").is_none());
        }
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn probability_one_always_fires_and_budget_caps() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new("p.a", FaultKind::IoError)
                .with_probability(1.0)
                .with_max_fires(2)],
        });
        let fires: Vec<bool> =
            (0..5).map(|_| FaultPoint::should_fire("p.a").is_some()).collect();
        assert_eq!(fires, vec![true, true, false, false, false]);
        assert_eq!(fired_total(), 2);
        clear();
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let _guard = test_lock();
        let run = |seed: u64| -> Vec<bool> {
            set_plan(FaultPlan {
                seed,
                rules: vec![FaultRule::new("p.b", FaultKind::BitFlip).with_probability(0.5)],
            });
            let fires = (0..64).map(|_| FaultPoint::should_fire("p.b").is_some()).collect();
            clear();
            fires
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        assert_ne!(a, c, "different seeds should differ (64 draws at p=0.5)");
        let count = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&count), "p=0.5 over 64 draws fired {count} times");
    }

    #[test]
    fn thread_scoped_plan_is_invisible_to_other_threads() {
        let _guard = test_lock();
        set_plan_for_this_thread(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new("p.t", FaultKind::IoError).with_max_fires(1)],
        });
        let elsewhere = std::thread::spawn(|| FaultPoint::should_fire("p.t")).join();
        assert_eq!(elsewhere.expect("join"), None, "a bystander neither fires…");
        assert!(FaultPoint::should_fire("p.t").is_some(), "…nor spends the budget");
        clear();
    }

    #[test]
    fn skip_first_defers_firing() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 5,
            rules: vec![FaultRule::new("p.c", FaultKind::Crash)
                .with_probability(1.0)
                .with_skip_first(3)],
        });
        let fires: Vec<bool> =
            (0..5).map(|_| FaultPoint::should_fire("p.c").is_some()).collect();
        assert_eq!(fires, vec![false, false, false, true, true]);
        clear();
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 9,
            rules: vec![FaultRule::new("p.d", FaultKind::BitFlip).with_probability(1.0)],
        });
        let point = FaultPoint::new("p.d");
        let original = vec![0u8; 64];
        let mut bytes = original.clone();
        assert!(point.corrupt(&mut bytes));
        let flipped: u32 = bytes
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must flip");
        // empty slices are left alone (and do not consume panic)
        assert!(!point.corrupt(&mut []));
        clear();
    }

    #[test]
    fn io_error_is_transient_kind() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new("p.e", FaultKind::IoError).with_probability(1.0)],
        });
        let e = FaultPoint::new("p.e").io_error().expect("fires");
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert!(e.to_string().contains("p.e"));
        clear();
    }

    #[test]
    fn crash_point_panics_with_recognizable_message() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 2,
            rules: vec![FaultRule::new("p.f", FaultKind::Crash).with_probability(1.0)],
        });
        let err = std::panic::catch_unwind(|| FaultPoint::new("p.f").crash_point())
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected crash at fault point p.f"), "{msg}");
        clear();
    }

    #[test]
    fn unrelated_points_are_untouched() {
        let _guard = test_lock();
        set_plan(FaultPlan {
            seed: 4,
            rules: vec![FaultRule::new("p.g", FaultKind::IoError).with_probability(1.0)],
        });
        assert!(FaultPoint::should_fire("p.other").is_none());
        assert!(FaultPoint::should_fire("p.g").is_some());
        clear();
    }
}
