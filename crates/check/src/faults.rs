//! Deliberately armed failure points for the fault-injection suites.
//!
//! Production code calls [`fire`] at a handful of named sites (worker
//! loops, journal appends, the trial-merge rollback path). Without the
//! `test-faults` feature the call is a constant-`false` inline stub —
//! no global state, no branches worth measuring. With the feature, a
//! test arms a [`FaultPlan`] and holds the returned [`FaultGuard`]:
//! each armed site then fires a bounded number of times, and dropping
//! the guard disarms everything, so tests cannot leak faults into each
//! other.
//!
//! The plan lives behind one process-wide lock that fault tests also
//! serialize on by holding the guard — two concurrently armed plans
//! would otherwise race for the same sites.

/// Canonical site names, so tests and call sites cannot drift apart.
pub mod sites {
    /// A DSE worker thread dies before claiming its next point.
    pub const DSE_WORKER_KILL: &str = "dse::worker::kill";
    /// Panic inside the journal append while the sink lock is held
    /// (poisons the sink mutex).
    pub const DSE_SINK_PANIC: &str = "dse::sink::panic";
    /// Corrupt the bytes of one journal point line as it is written.
    pub const DSE_SINK_CORRUPT: &str = "dse::sink::corrupt";
    /// Force a trial merge to roll back after a successful apply,
    /// before pricing.
    pub const CORE_FORCE_ROLLBACK: &str = "core::trial_merge::force_rollback";
    /// A job-engine worker thread dies right after claiming a job from
    /// the queue (the job is reported failed; the thread is gone).
    pub const JOBS_WORKER_KILL: &str = "jobs::worker::kill";
    /// A tcov grading worker dies before claiming its next fault
    /// partition / PODEM target (the merge pass recomputes what the
    /// dead worker never delivered, so the report stays correct).
    pub const TCOV_WORKER_KILL: &str = "tcov::worker::kill";
}

#[cfg(feature = "test-faults")]
mod armed {
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// One armed site: fires `remaining` more times.
    #[derive(Debug, Clone)]
    struct Armed {
        site: &'static str,
        remaining: u64,
    }

    #[derive(Debug, Default)]
    struct PlanState {
        armed: Vec<Armed>,
        fired: Vec<&'static str>,
    }

    /// Held by every live [`FaultGuard`]: a second `install` blocks
    /// until the first guard drops, so tests running in parallel in one
    /// binary cannot overwrite (or disarm) each other's plan.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn plan() -> MutexGuard<'static, PlanState> {
        static PLAN: OnceLock<Mutex<PlanState>> = OnceLock::new();
        // Fault tests panic on purpose while the lock may be held by a
        // `fire` call on the panicking thread's stack — recover instead
        // of cascading the poison into unrelated tests.
        PLAN.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A builder of armed failure points.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        armed: Vec<Armed>,
    }

    impl FaultPlan {
        /// An empty plan.
        #[must_use]
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Arm `site` to fire on its next `times` queries.
        #[must_use]
        pub fn arm(mut self, site: &'static str, times: u64) -> Self {
            self.armed.push(Armed {
                site,
                remaining: times,
            });
            self
        }

        /// Install the plan process-wide, first waiting for any other
        /// installed plan's guard to drop. The returned guard disarms
        /// everything when dropped.
        #[must_use]
        pub fn install(self) -> FaultGuard {
            let serial = serial();
            let mut state = plan();
            state.armed = self.armed;
            state.fired.clear();
            FaultGuard { _serial: serial }
        }
    }

    /// Keeps a [`FaultPlan`] armed; dropping it disarms all sites.
    #[derive(Debug)]
    pub struct FaultGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl FaultGuard {
        /// The sites that actually fired since installation, in order.
        #[must_use]
        pub fn fired(&self) -> Vec<&'static str> {
            plan().fired.clone()
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            let mut state = plan();
            state.armed.clear();
            state.fired.clear();
        }
    }

    /// Whether the named site should fail now. Consumes one charge of
    /// the site's arming.
    pub fn fire(site: &'static str) -> bool {
        let mut state = plan();
        let Some(entry) = state
            .armed
            .iter_mut()
            .find(|a| a.site == site && a.remaining > 0)
        else {
            return false;
        };
        entry.remaining -= 1;
        state.fired.push(site);
        true
    }
}

#[cfg(feature = "test-faults")]
pub use armed::{fire, FaultGuard, FaultPlan};

/// Whether the named site should fail now. Without the `test-faults`
/// feature this is a constant-`false` stub the optimizer removes.
#[cfg(not(feature = "test-faults"))]
#[inline(always)]
#[must_use]
pub fn fire(_site: &'static str) -> bool {
    false
}

#[cfg(all(test, feature = "test-faults"))]
mod tests {
    use super::*;

    #[test]
    fn charges_deplete_and_guard_disarms() {
        let guard = FaultPlan::new().arm(sites::DSE_WORKER_KILL, 2).install();
        assert!(fire(sites::DSE_WORKER_KILL));
        assert!(fire(sites::DSE_WORKER_KILL));
        assert!(!fire(sites::DSE_WORKER_KILL), "charges are bounded");
        assert!(!fire(sites::DSE_SINK_PANIC), "unarmed sites never fire");
        assert_eq!(
            guard.fired(),
            vec![sites::DSE_WORKER_KILL, sites::DSE_WORKER_KILL]
        );
        drop(guard);
        let guard2 = FaultPlan::new().arm(sites::DSE_WORKER_KILL, 1).install();
        assert!(fire(sites::DSE_WORKER_KILL));
        drop(guard2);
        assert!(!fire(sites::DSE_WORKER_KILL), "dropped guard disarms");
    }
}
