//! The shared applied-version and health registry.
//!
//! Each replica owns one slot and publishes the store version it has
//! applied up to; the router reads the slots to pick an eligible
//! replica and blocks on the paired condvar when a consistency level
//! demands a version no replica has reached yet. The supervisor's
//! progress watchdog drives each slot's [`ReplicaHealth`] through the
//! same registry, and every health transition wakes the condvar too —
//! so a router blocked in a failover retry reacts the moment a replica
//! recovers (or is quarantined) instead of burning its deadline in
//! sleep quanta.
//!
//! Versions, health states, restart counts and salvage positions live
//! in plain atomics so the hot read path ([`ReplicaRegistry::applied`],
//! [`ReplicaRegistry::newest_applied`], [`ReplicaRegistry::health`]) is
//! a cheap snapshot read with no lock traffic. The `registry` mutex
//! guards nothing but the condvar handshake and the count of blocked
//! waiters: publishers store the atomic first, then take the mutex and
//! notify only when that count is above 0, so a waiter that counts
//! itself and checks the predicate under the mutex can never miss a
//! wakeup, and a publish with nobody waiting makes no wake syscall.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A replica's routing health, driven by the supervisor's progress
/// watchdog (see `crate::supervisor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Applying records and keeping up; fully routable.
    Healthy,
    /// Behind and not visibly progressing — still routable, but a
    /// warning sign (the state between "slow" and "written off").
    Degraded,
    /// Stopped making progress past the watchdog's patience, or dead
    /// with its restart budget exhausted. The router never dispatches
    /// into a quarantined replica.
    Quarantined,
}

impl ReplicaHealth {
    fn from_u8(raw: u8) -> ReplicaHealth {
        match raw {
            0 => ReplicaHealth::Healthy,
            1 => ReplicaHealth::Degraded,
            _ => ReplicaHealth::Quarantined,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ReplicaHealth::Healthy => 0,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Quarantined => 2,
        }
    }

    /// Whether the router may dispatch into a replica in this state.
    pub fn is_routable(self) -> bool {
        !matches!(self, ReplicaHealth::Quarantined)
    }
}

impl std::fmt::Display for ReplicaHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Quarantined => "quarantined",
        };
        f.write_str(name)
    }
}

/// One registry slot: all plain atomics (see the module docs).
struct Slot {
    /// The replica's applied store version.
    applied: AtomicU64,
    /// [`ReplicaHealth`] encoded via `as_u8`.
    health: AtomicU8,
    /// How many times the supervisor has respawned this replica.
    restarts: AtomicU64,
    /// Last salvage position, encoded as `lsn + 1` (0 = never
    /// salvaged), so LSN 0 salvages are representable.
    salvage: AtomicU64,
}

struct RegistryInner {
    slots: Vec<Slot>,
    /// The number of threads blocked on `caught_up`.
    ///
    /// Lock order: `fleet::registry` is a leaf — it is never held
    /// across any other acquisition (publish and wait both take it
    /// alone).
    registry: Mutex<usize>,
    /// Signaled (with `registry` held) after a publish, restart,
    /// salvage or health transition while some waiter is counted in
    /// `registry`.
    caught_up: Condvar,
}

/// Shared registry of per-replica applied versions, health states,
/// restart counts and salvage positions. Cloning is cheap (`Arc` bump)
/// and every clone views the same slots.
#[derive(Clone)]
pub struct ReplicaRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for ReplicaRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaRegistry")
            .field("applied", &self.applied_versions())
            .field("health", &self.health_states())
            .finish()
    }
}

impl ReplicaRegistry {
    /// A registry with `slots` replica slots, all at version 0 and
    /// [`ReplicaHealth::Healthy`].
    pub fn new(slots: usize) -> ReplicaRegistry {
        ReplicaRegistry {
            inner: Arc::new(RegistryInner {
                slots: (0..slots)
                    .map(|_| Slot {
                        applied: AtomicU64::new(0),
                        health: AtomicU8::new(ReplicaHealth::Healthy.as_u8()),
                        restarts: AtomicU64::new(0),
                        salvage: AtomicU64::new(0),
                    })
                    .collect(),
                registry: Mutex::new(0),
                caught_up: Condvar::new(),
            }),
        }
    }

    fn slot(&self, slot: usize) -> &Slot {
        self.inner
            .slots
            .get(slot)
            .expect("invariant: replica slot within registry capacity")
    }

    /// Wakes every waiter, if there is one. Called after any atomic
    /// publish; taking the mutex after the store orders the publish
    /// before any predicate check a waiter performs under the same
    /// mutex, and a waiter counts itself under it before that check.
    fn notify(&self) {
        let waiters = self.inner.registry.lock().expect("registry poisoned");
        if *waiters > 0 {
            self.inner.caught_up.notify_all();
        }
    }

    /// Number of replica slots.
    pub fn slots(&self) -> usize {
        self.inner.slots.len()
    }

    /// Records that replica `slot` has applied up to `version` and
    /// wakes every waiter.
    pub fn publish_applied(&self, slot: usize, version: u64) {
        self.slot(slot).applied.store(version, Ordering::Release);
        self.notify();
    }

    /// Replica `slot`'s applied version.
    pub fn applied(&self, slot: usize) -> u64 {
        self.slot(slot).applied.load(Ordering::Acquire)
    }

    /// Every slot's applied version, in slot order.
    pub fn applied_versions(&self) -> Vec<u64> {
        self.inner
            .slots
            .iter()
            .map(|slot| slot.applied.load(Ordering::Acquire))
            .collect()
    }

    /// The most advanced replica's applied version (0 with no slots).
    pub fn newest_applied(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|slot| slot.applied.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Sets replica `slot`'s health and wakes every waiter (a recovery
    /// or a quarantine must unblock routing decisions immediately).
    pub fn set_health(&self, slot: usize, health: ReplicaHealth) {
        let previous = self
            .slot(slot)
            .health
            .swap(health.as_u8(), Ordering::AcqRel);
        if previous != health.as_u8() {
            self.notify();
        }
    }

    /// Replica `slot`'s current health.
    pub fn health(&self, slot: usize) -> ReplicaHealth {
        ReplicaHealth::from_u8(self.slot(slot).health.load(Ordering::Acquire))
    }

    /// Every slot's health, in slot order.
    pub fn health_states(&self) -> Vec<ReplicaHealth> {
        self.inner
            .slots
            .iter()
            .map(|slot| ReplicaHealth::from_u8(slot.health.load(Ordering::Acquire)))
            .collect()
    }

    /// Bumps replica `slot`'s restart count (the supervisor respawned
    /// it) and returns the new count.
    pub fn record_restart(&self, slot: usize) -> u64 {
        let count = self.slot(slot).restarts.fetch_add(1, Ordering::AcqRel) + 1;
        self.notify();
        count
    }

    /// How many times replica `slot` has been respawned.
    pub fn restarts(&self, slot: usize) -> u64 {
        self.slot(slot).restarts.load(Ordering::Acquire)
    }

    /// Total respawns across every slot.
    pub fn total_restarts(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|slot| slot.restarts.load(Ordering::Acquire))
            .sum()
    }

    /// Records that replica `slot` salvaged its local log up to `lsn`
    /// (the longest valid prefix after detecting corruption).
    pub fn record_salvage(&self, slot: usize, lsn: u64) {
        self.slot(slot).salvage.store(lsn + 1, Ordering::Release);
        self.notify();
    }

    /// The LSN replica `slot` last salvaged up to, if it ever did.
    pub fn last_salvage_lsn(&self, slot: usize) -> Option<u64> {
        match self.slot(slot).salvage.load(Ordering::Acquire) {
            0 => None,
            encoded => Some(encoded - 1),
        }
    }

    /// Blocks until at least one **routable** (non-quarantined) replica
    /// has applied `version`, up to `timeout`. Returns whether the
    /// condition holds on return. Health transitions wake this wait,
    /// so a quarantine lift or a recovery is reacted to immediately.
    pub fn wait_for_any_routable_at_least(&self, version: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, || {
            self.inner.slots.iter().any(|slot| {
                ReplicaHealth::from_u8(slot.health.load(Ordering::Acquire)).is_routable()
                    && slot.applied.load(Ordering::Acquire) >= version
            })
        })
    }

    /// Blocks until every **routable** replica has applied `version`
    /// (quarantined replicas are written off), up to `timeout`.
    /// Returns whether the condition holds on return.
    pub fn wait_for_all_routable_at_least(&self, version: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, || {
            self.inner.slots.iter().all(|slot| {
                !ReplicaHealth::from_u8(slot.health.load(Ordering::Acquire)).is_routable()
                    || slot.applied.load(Ordering::Acquire) >= version
            })
        })
    }

    /// Blocks until **anything** happens — any publish, health change,
    /// restart or salvage — or `timeout` elapses, whichever is first.
    /// The router's failover backoff is bounded by this instead of a
    /// plain sleep, so a recovery landing mid-pause cuts it short.
    pub fn wait_for_event(&self, timeout: Duration) {
        if timeout.is_zero() {
            return;
        }
        let mut waiters = self.inner.registry.lock().expect("registry poisoned");
        *waiters += 1;
        let (mut waiters, _timed_out) = self
            .inner
            .caught_up
            .wait_timeout(waiters, timeout)
            .expect("registry poisoned");
        *waiters -= 1;
    }

    fn wait_until<F: Fn() -> bool>(&self, timeout: Duration, reached: F) -> bool {
        if reached() {
            return true;
        }
        let mut waiters = self.inner.registry.lock().expect("registry poisoned");
        *waiters += 1;
        let (mut waiters, _timed_out) = self
            .inner
            .caught_up
            .wait_timeout_while(waiters, timeout, |_| !reached())
            .expect("registry poisoned");
        *waiters -= 1;
        drop(waiters);
        reached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_read_back() {
        let registry = ReplicaRegistry::new(3);
        assert_eq!(registry.applied_versions(), vec![0, 0, 0]);
        registry.publish_applied(1, 5);
        registry.publish_applied(2, 3);
        assert_eq!(registry.applied(1), 5);
        assert_eq!(registry.newest_applied(), 5);
        assert_eq!(registry.applied(0), 0);
        assert_eq!(registry.applied_versions(), vec![0, 5, 3]);
    }

    #[test]
    fn wait_times_out_when_nobody_catches_up() {
        let registry = ReplicaRegistry::new(1);
        assert!(!registry.wait_for_any_routable_at_least(1, Duration::from_millis(20)));
        assert!(registry.wait_for_any_routable_at_least(0, Duration::ZERO));
    }

    #[test]
    fn wait_wakes_on_publish() {
        let registry = ReplicaRegistry::new(2);
        let waiter = registry.clone();
        let handle = std::thread::spawn(move || {
            waiter.wait_for_any_routable_at_least(4, Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(10));
        registry.publish_applied(0, 4);
        assert!(handle.join().unwrap());
        // All-replica wait still fails: slot 1 is behind.
        assert!(!registry.wait_for_all_routable_at_least(4, Duration::from_millis(20)));
        registry.publish_applied(1, 4);
        assert!(registry.wait_for_all_routable_at_least(4, Duration::ZERO));
    }

    #[test]
    fn health_defaults_and_transitions() {
        let registry = ReplicaRegistry::new(2);
        assert_eq!(
            registry.health_states(),
            vec![ReplicaHealth::Healthy, ReplicaHealth::Healthy]
        );
        registry.set_health(1, ReplicaHealth::Quarantined);
        assert_eq!(registry.health(1), ReplicaHealth::Quarantined);
        assert!(!registry.health(1).is_routable());
        assert!(registry.health(0).is_routable());
        registry.set_health(1, ReplicaHealth::Degraded);
        assert!(registry.health(1).is_routable());
    }

    #[test]
    fn routable_wait_ignores_quarantined_replicas() {
        let registry = ReplicaRegistry::new(2);
        registry.publish_applied(0, 9);
        registry.set_health(0, ReplicaHealth::Quarantined);
        // The only caught-up replica is quarantined: not routable.
        assert!(!registry.wait_for_any_routable_at_least(9, Duration::from_millis(20)));
        // But a written-off replica no longer blocks the all-routable
        // convergence wait.
        registry.publish_applied(1, 9);
        assert!(registry.wait_for_any_routable_at_least(9, Duration::ZERO));
        registry.set_health(1, ReplicaHealth::Quarantined);
        registry.publish_applied(1, 0);
        assert!(registry.wait_for_all_routable_at_least(42, Duration::ZERO));
    }

    #[test]
    fn health_transition_wakes_waiters() {
        let registry = ReplicaRegistry::new(1);
        registry.publish_applied(0, 5);
        registry.set_health(0, ReplicaHealth::Quarantined);
        let waiter = registry.clone();
        let handle = std::thread::spawn(move || {
            waiter.wait_for_any_routable_at_least(5, Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(10));
        // Lifting the quarantine must wake the blocked router retry.
        registry.set_health(0, ReplicaHealth::Healthy);
        assert!(handle.join().unwrap());
    }

    /// Ping-pong rounds between a waiter thread and this one: each
    /// round's `signal` must wake the waiter's `wait` (30 s) within 1 s.
    /// With `until_blocked`, every signal waits until the waiter is
    /// counted as blocked (a predicate-free wait misses earlier events
    /// by design); without it, signals alternate between racing the
    /// waiter's re-lock and landing after a pause that lets it block.
    fn ping_pong<W, S>(until_blocked: bool, wait: W, signal: S)
    where
        W: Fn(&ReplicaRegistry, u64) + Send + 'static,
        S: Fn(&ReplicaRegistry, u64),
    {
        const ROUNDS: u64 = 200;
        let registry = ReplicaRegistry::new(2);
        let (seen, recv) = std::sync::mpsc::channel();
        let waiter = registry.clone();
        let handle = std::thread::spawn(move || {
            for round in 1..=ROUNDS {
                wait(&waiter, round);
                seen.send(round).unwrap();
            }
        });
        let waiters = || *registry.inner.registry.lock().unwrap();
        for round in 1..=ROUNDS {
            if until_blocked {
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while waiters() == 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "round {round}: the waiter never blocked"
                    );
                    std::thread::yield_now();
                }
            } else if round % 2 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            signal(&registry, round);
            assert_eq!(
                recv.recv_timeout(Duration::from_secs(1)),
                Ok(round),
                "round {round}: the signal did not wake the waiter"
            );
        }
        handle.join().unwrap();
        assert_eq!(waiters(), 0);
    }

    #[test]
    fn routable_wait_never_loses_a_wake_up() {
        ping_pong(
            false,
            |registry, round| {
                assert!(registry.wait_for_any_routable_at_least(round, Duration::from_secs(30)));
            },
            |registry, round| registry.publish_applied(1, round),
        );
    }

    #[test]
    fn event_wait_never_loses_a_wake_up() {
        ping_pong(
            true,
            |registry, _| registry.wait_for_event(Duration::from_secs(30)),
            |registry, round| {
                let health = if round % 2 == 0 {
                    ReplicaHealth::Healthy
                } else {
                    ReplicaHealth::Degraded
                };
                registry.set_health(0, health);
            },
        );
    }

    #[test]
    fn restarts_and_salvage_are_tracked_per_slot() {
        let registry = ReplicaRegistry::new(2);
        assert_eq!(registry.restarts(0), 0);
        assert_eq!(registry.record_restart(0), 1);
        assert_eq!(registry.record_restart(0), 2);
        assert_eq!(registry.restarts(0), 2);
        assert_eq!(registry.restarts(1), 0);
        assert_eq!(registry.total_restarts(), 2);

        assert_eq!(registry.last_salvage_lsn(1), None);
        registry.record_salvage(1, 0);
        assert_eq!(registry.last_salvage_lsn(1), Some(0));
        registry.record_salvage(1, 17);
        assert_eq!(registry.last_salvage_lsn(1), Some(17));
    }
}
