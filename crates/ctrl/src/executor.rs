//! The action executor: carries a [`ControlAction`] out against trait
//! handles, with bounded retries and doubling backoff.
//!
//! The executor sees the cluster only through two small traits —
//! [`ClusterOps`] (what the router can do: migrate, re-point a ring slot)
//! and [`RecoveryDriver`] (what the environment can do: promote a follower
//! process, restart a shard from its store). Tests drive it with in-memory
//! mocks; production hands it a
//! [`RouterHandle`](ofscil_router::RouterHandle) and a
//! [`StandbyFleet`](crate::harness::StandbyFleet).

use crate::action::{ControlAction, CtrlError};
use crate::config::CtrlConfig;
use ofscil_wire::BoundAddr;
use std::time::Duration;

/// Ring-side operations an executed action needs — implemented for
/// [`RouterHandle`](ofscil_router::RouterHandle) next to
/// [`Controller`](crate::Controller), mocked in tests. Errors are plain
/// strings: the executor retries them, it does not branch on them.
pub(crate) trait ClusterOps {
    /// Live-migrates `deployment` to shard `target`.
    fn migrate(&self, deployment: &str, target: usize) -> Result<(), String>;
    /// Re-points shard `shard`'s ring slot at `addr` (the failover edge
    /// after a promotion or restart).
    fn replace_shard(&self, shard: usize, addr: BoundAddr) -> Result<(), String>;
}

/// Process-side recovery operations — how a dead shard's replacement
/// actually comes into existence. Returns the replacement's bound address.
///
/// Implementations should be **idempotent per shard**: the executor retries
/// a failed action whole, so a `promote` whose process came up but whose
/// ring re-point failed will be asked again and must hand back the same
/// address instead of consuming a second replica.
pub trait RecoveryDriver {
    /// Promotes the advertised follower at `follower_addr` into a durable,
    /// writable primary for `shard`.
    fn promote(&mut self, shard: usize, follower_addr: &str) -> Result<BoundAddr, String>;
    /// Restarts `shard` from its durable store (WAL + checkpoints).
    fn restart(&mut self, shard: usize) -> Result<BoundAddr, String>;
}

/// Retrying executor. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Executor {
    attempts: u32,
    backoff: Duration,
}

impl Executor {
    /// An executor with the configuration's retry policy.
    pub(crate) fn new(config: &CtrlConfig) -> Executor {
        Executor {
            attempts: config.retry_attempts.max(1),
            backoff: config.retry_backoff,
        }
    }

    /// Carries `action` out, retrying up to the configured attempt count
    /// with doubling backoff between tries.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError::ActionFailed`] carrying the action, the attempt
    /// count and the final attempt's error once retries are exhausted.
    pub(crate) fn execute<O, D>(
        &self,
        action: &ControlAction,
        ops: &O,
        driver: &mut D,
    ) -> Result<(), CtrlError>
    where
        O: ClusterOps + ?Sized,
        D: RecoveryDriver + ?Sized,
    {
        let mut delay = self.backoff;
        let mut last = String::new();
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match attempt_once(action, ops, driver) {
                Ok(()) => return Ok(()),
                Err(error) => last = error,
            }
        }
        Err(CtrlError::ActionFailed {
            action: action.clone(),
            attempts: self.attempts,
            error: last,
        })
    }
}

fn attempt_once<O, D>(action: &ControlAction, ops: &O, driver: &mut D) -> Result<(), String>
where
    O: ClusterOps + ?Sized,
    D: RecoveryDriver + ?Sized,
{
    match action {
        ControlAction::RebalanceHot { deployment, to, .. } => ops.migrate(deployment, *to),
        ControlAction::PromoteFollower {
            shard,
            follower_addr,
        } => {
            let addr = driver.promote(*shard, follower_addr)?;
            ops.replace_shard(*shard, addr)
        }
        ControlAction::RestartFromStore { shard } => {
            let addr = driver.restart(*shard)?;
            ops.replace_shard(*shard, addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Instant;

    fn loopback(port: u16) -> BoundAddr {
        BoundAddr::Tcp(std::net::SocketAddr::from(([127, 0, 0, 1], port)))
    }

    /// Mock ops: records calls, fails the first `fail_first` of them.
    #[derive(Default)]
    struct MockOps {
        calls: RefCell<Vec<String>>,
        fail_first: RefCell<u32>,
    }

    impl ClusterOps for MockOps {
        fn migrate(&self, deployment: &str, target: usize) -> Result<(), String> {
            self.calls
                .borrow_mut()
                .push(format!("migrate {deployment} -> {target}"));
            let mut budget = self.fail_first.borrow_mut();
            if *budget > 0 {
                *budget -= 1;
                return Err("shard unavailable".into());
            }
            Ok(())
        }

        fn replace_shard(&self, shard: usize, addr: BoundAddr) -> Result<(), String> {
            self.calls
                .borrow_mut()
                .push(format!("replace {shard} -> {addr}"));
            Ok(())
        }
    }

    #[derive(Default)]
    struct MockDriver {
        promotions: Vec<(usize, String)>,
        restarts: Vec<usize>,
    }

    impl RecoveryDriver for MockDriver {
        fn promote(&mut self, shard: usize, follower_addr: &str) -> Result<BoundAddr, String> {
            self.promotions.push((shard, follower_addr.to_string()));
            Ok(loopback(9100))
        }

        fn restart(&mut self, shard: usize) -> Result<BoundAddr, String> {
            self.restarts.push(shard);
            Err("no store registered".into())
        }
    }

    fn executor(attempts: u32) -> Executor {
        Executor::new(&CtrlConfig::default().with_retries(attempts, Duration::from_millis(1)))
    }

    #[test]
    fn transient_failures_are_retried_with_backoff_until_success() {
        let ops = MockOps {
            fail_first: RefCell::new(2),
            ..MockOps::default()
        };
        let mut driver = MockDriver::default();
        let action = ControlAction::RebalanceHot {
            deployment: "t".into(),
            from: 0,
            to: 1,
        };
        let started = Instant::now();
        executor(3).execute(&action, &ops, &mut driver).unwrap();
        assert_eq!(ops.calls.borrow().len(), 3, "two failures + one success");
        // Backoff slept 1ms + 2ms between the three attempts.
        assert!(started.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn exhausted_retries_surface_a_typed_error() {
        let ops = MockOps::default();
        let mut driver = MockDriver::default();
        let action = ControlAction::RestartFromStore { shard: 2 };
        let error = executor(3).execute(&action, &ops, &mut driver).unwrap_err();
        match &error {
            CtrlError::ActionFailed {
                action: failed,
                attempts,
                error,
            } => {
                assert_eq!(failed, &action);
                assert_eq!(*attempts, 3);
                assert_eq!(error, "no store registered");
            }
        }
        assert_eq!(
            driver.restarts,
            vec![2, 2, 2],
            "every attempt reached the driver"
        );
        assert!(ops.calls.borrow().is_empty(), "the ring was never touched");
    }

    #[test]
    fn promotion_re_points_the_ring_at_the_drivers_address() {
        let ops = MockOps::default();
        let mut driver = MockDriver::default();
        let action = ControlAction::PromoteFollower {
            shard: 1,
            follower_addr: "tcp://127.0.0.1:9001".into(),
        };
        executor(1).execute(&action, &ops, &mut driver).unwrap();
        assert_eq!(
            driver.promotions,
            vec![(1, "tcp://127.0.0.1:9001".to_string())]
        );
        assert_eq!(
            ops.calls.borrow().as_slice(),
            ["replace 1 -> tcp://127.0.0.1:9100"]
        );
    }

    #[test]
    fn zero_attempts_clamp_to_one() {
        let ops = MockOps::default();
        let mut driver = MockDriver::default();
        let action = ControlAction::RebalanceHot {
            deployment: "t".into(),
            from: 0,
            to: 1,
        };
        executor(0).execute(&action, &ops, &mut driver).unwrap();
        assert_eq!(ops.calls.borrow().len(), 1);
    }
}
