//! Open-loop pacing: requests are sent on a fixed schedule whether or not
//! earlier ones were answered, each is timed **from the moment it was due**,
//! and how late the generator itself ran is reported beside the latencies.
//!
//! Timing from the due time is what makes a stall visible: if a send blocks
//! for 5 ms, the requests scheduled during those 5 ms leave late, and their
//! latency counts the wait the stall imposed on them — timing from the actual
//! send would hide it.

use std::time::{Duration, Instant};

/// A fixed-rate arrival schedule for one connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Time between consecutive requests of this connection.
    pub interval: Duration,
    /// Due time of request 0, measured from the phase start (staggers the
    /// connections so their requests interleave instead of colliding).
    pub offset: Duration,
    pub count: u64,
}

impl Schedule {
    /// Split `rate` requests/s for `seconds` evenly over `connections`; this is
    /// connection `index`'s share.
    pub fn for_connection(rate: f64, seconds: f64, connections: usize, index: usize) -> Schedule {
        let per_conn = rate / connections as f64;
        let interval = Duration::from_secs_f64(1.0 / per_conn);
        Schedule {
            interval,
            offset: interval.mul_f64(index as f64 / connections as f64),
            count: (per_conn * seconds).round() as u64,
        }
    }

    /// When request `seq` is due, measured from the phase start.
    pub fn due(&self, seq: u64) -> Duration {
        self.offset + self.interval.mul_f64(seq as f64)
    }
}

/// Time as the pacer sees it; the tests substitute a fake to inject stalls.
pub trait Clock {
    /// Time since the phase start.
    fn now(&self) -> Duration;
    /// Block until `at` (returns at once when `at` has passed).
    fn sleep_until(&self, at: Duration);
}

pub struct WallClock {
    pub start: Instant,
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// How late one send started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lateness {
    /// After its due time. Includes the time earlier sends blocked (the
    /// server's back-pressure), which the latency from due time counts too.
    pub after_due: Duration,
    /// After the sender was both free and due: the generator's own lateness
    /// (oversleeping, being descheduled), which is the generator-health figure.
    pub after_ready: Duration,
}

/// Send every request of `schedule` at its due time, or as soon after as the
/// previous send allows — never earlier, and never skipping one. Returns how
/// late each send started, in request order.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut send: impl FnMut(u64, Duration),
) -> Vec<Lateness> {
    let mut lateness = Vec::with_capacity(schedule.count as usize);
    let mut free_at = Duration::ZERO;
    for seq in 0..schedule.count {
        let due = schedule.due(seq);
        clock.sleep_until(due);
        let start = clock.now();
        lateness.push(Lateness {
            after_due: start.saturating_sub(due),
            after_ready: start.saturating_sub(due.max(free_at)),
        });
        send(seq, due);
        free_at = clock.now();
    }
    lateness
}

/// Latency of a request answered at `done`, from when it was due.
pub fn latency_from_due(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn schedule_splits_rate_and_staggers_connections() {
        let a = Schedule::for_connection(1000.0, 2.0, 2, 0);
        let b = Schedule::for_connection(1000.0, 2.0, 2, 1);
        assert_eq!(a.interval, 2 * MS);
        assert_eq!(a.count + b.count, 2000);
        assert_eq!(a.due(0), Duration::ZERO);
        assert_eq!(b.due(0), MS);
        assert_eq!(a.due(10), 20 * MS);
    }

    /// A send that stalls delays the requests scheduled behind it: they leave
    /// late (lateness), and their latency from the due time counts the stall
    /// that a send-time clock would hide.
    #[test]
    fn stall_shows_in_lateness_and_in_latency_from_due() {
        let schedule = Schedule {
            interval: 10 * MS,
            offset: Duration::ZERO,
            count: 8,
        };
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let send_cost = MS;
        let service = 2 * MS;
        let stall_at = 2u64;
        let stall = 35 * MS;

        let mut sent_at = Vec::new();
        let lateness = pace(&clock, &schedule, |seq, _due| {
            sent_at.push(clock.now());
            let cost = if seq == stall_at { stall } else { send_cost };
            clock.0.set(clock.now() + cost);
        });

        // Requests 0..=2 leave on time; 3, 4, 5 were due during the stall.
        let late_ms: Vec<u128> = lateness.iter().map(|l| l.after_due.as_millis()).collect();
        assert_eq!(late_ms, vec![0, 0, 0, 25, 16, 7, 0, 0]);
        // The generator itself was never late: each left the moment the
        // sender was free.
        assert!(lateness.iter().all(|l| l.after_ready == Duration::ZERO));

        // The server answers `service` after each send completes.
        for (seq, late) in lateness.iter().enumerate() {
            let cost = if seq as u64 == stall_at {
                stall
            } else {
                send_cost
            };
            let done = sent_at[seq] + cost + service;
            let from_due = latency_from_due(schedule.due(seq as u64), done);
            let from_send = done - sent_at[seq];
            assert_eq!(from_due, from_send + late.after_due, "request {seq}");
        }
        // Nothing is skipped and nothing leaves before it is due.
        assert_eq!(sent_at.len(), 8);
        for (seq, at) in sent_at.iter().enumerate() {
            assert!(*at >= schedule.due(seq as u64));
        }
    }
}
