//! The engine's synchronization: one atomics-only epoch protocol.
//!
//! An engine of `n` thread blocks has `n` **participants**: seat 0 is whichever
//! thread submits the epoch (it changes from call to call), seats `1..n` are
//! the spawned workers. Three pieces, all built on the same wait ladder:
//!
//! * [`EpochGate`] — the submitter writes the epoch's payload, stores the
//!   epoch word and wakes whoever is parked; workers wait for the word to
//!   change. Every participant checks in when its share is done and the
//!   submitter waits for the count to reach zero.
//! * **Claim words** — in a [`EpochKind::Claim`] epoch a block is run by
//!   whoever first raises its claim word to the epoch word (one `fetch_max`).
//!   A worker claims only its own block; the submitter claims block 0 and then
//!   every block still unclaimed, so a worker that wakes late costs the epoch
//!   nothing but the claim.
//! * [`EpochKind::Rendezvous`] epochs — every participant must arrive (they
//!   meet at the sense-reversing [`RoundBarrier`] inside the epoch), so
//!   nothing can be stolen: seat `i` runs block `i`.
//!
//! **The wait ladder** (`Seats::wait_until`): a bounded spin, a few yields,
//! then `park`. Spinning happens only when the participants fit the host
//! (`n ≤ available_parallelism()`); an oversubscribed engine goes straight to
//! yield/park so that the thread it waits for can have the CPU. The budget is
//! [`SPIN_BUDGET`] everywhere but in the submitter's wait for completion,
//! which spins for as long as it has itself worked on the epoch.
//!
//! **Orderings.** Every word another thread's control flow depends on (epoch,
//! claims, the check-in count, the barrier, the `parked` flags) is `SeqCst`:
//! the park/wake handshake is a store-then-load on both sides and needs a
//! single total order, and on the one platform measured the stronger loads are
//! free. Only statistics are `Relaxed`, each noted where it is used.

use std::cell::UnsafeCell;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a waiter spins for the next epoch (or at a barrier) before it
/// gives the CPU away: about what a park/unpark pair costs, since a shorter
/// wait is cheaper to spin through and a longer one cheaper to sleep through.
/// Measured on the 2-vCPU reference host, 2 000 wakes of a thread parked for
/// 0.3 ms (400 wakes after 5 ms in brackets): `unpark` costs the waker
/// 4–6 µs [8–10] at the median and 16–19 µs [40] at p99, and the parked thread
/// runs 2.5–3.5 µs [7] (median), 10–14 µs [40] (p99) after the store it
/// waits for.
const SPIN_BUDGET: Duration = Duration::from_micros(30);
/// Condition checks between two clock reads while spinning.
const SPINS_PER_CLOCK_READ: u32 = 64;
/// `yield_now` calls between the spin phase and parking.
const YIELDS_BEFORE_PARK: u32 = 8;

/// What an epoch asks of the participants; the low bits of the epoch word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EpochKind {
    /// Blocks are claimed: owner first, the submitter takes what is left.
    Claim = 0,
    /// Seat `i` runs block `i` and all seats meet at the barrier.
    Rendezvous = 1,
    /// Workers return.
    Shutdown = 2,
}

const KIND_BITS: u32 = 2;

/// The epoch word of sequence number `seq`: strictly increasing in `seq`
/// whatever the kinds, so claim words can be raised with `fetch_max`.
pub(crate) fn epoch_word(seq: u64, kind: EpochKind) -> u64 {
    debug_assert!(seq < 1 << (64 - KIND_BITS));
    seq << KIND_BITS | kind as u64
}

fn kind_of(word: u64) -> EpochKind {
    match word & ((1 << KIND_BITS) - 1) {
        0 => EpochKind::Claim,
        1 => EpochKind::Rendezvous,
        _ => EpochKind::Shutdown,
    }
}

/// The points at which the test-only schedule hook may delay a participant.
#[derive(Clone, Copy)]
enum Point {
    BeforeClaim,
    AfterClaim,
    BeforeCheckIn,
    BarrierArrival,
    BeforePark,
}

/// A word on its own cache line, so waiters spinning on one never slow the
/// writers of another.
#[repr(align(64))]
pub(crate) struct Padded<T>(pub(crate) T);

/// One participant's place to sleep.
#[repr(align(64))]
struct Seat {
    /// Set (before the last condition check) by a waiter about to park, so a
    /// waker knows an `unpark` is needed.
    parked: AtomicBool,
    /// The thread occupying the seat, written by the waiter before `parked`.
    thread: Mutex<Option<Thread>>,
    /// Waits that ended in `park` / ended while spinning.
    parks: AtomicU64,
    spin_hits: AtomicU64,
}

/// The participants' seats and the wait ladder over them.
struct Seats {
    seats: Vec<Seat>,
    /// Whether waiters spin before yielding: only when every participant can
    /// have a CPU of its own.
    spin: bool,
    #[cfg(test)]
    chaos: chaos::Chaos,
}

impl Seats {
    fn new(n: usize) -> Seats {
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
        Seats {
            seats: (0..n)
                .map(|_| Seat {
                    parked: AtomicBool::new(false),
                    thread: Mutex::new(None),
                    parks: AtomicU64::new(0),
                    spin_hits: AtomicU64::new(0),
                })
                .collect(),
            spin: n <= cpus,
            #[cfg(test)]
            chaos: chaos::Chaos::default(),
        }
    }

    #[cfg(test)]
    fn yield_point(&self, point: Point, seat: usize) {
        self.chaos.at(point, seat);
    }

    #[cfg(not(test))]
    #[inline(always)]
    fn yield_point(&self, _point: Point, _seat: usize) {}

    /// Block the thread in `seat` until `cond()` holds: spin for up to
    /// `budget` (if the engine fits the host), yield, park. `cond` must read
    /// with `SeqCst`, and whoever makes it true must call [`Seats::wake`] for
    /// this seat after.
    fn wait_until(&self, seat: usize, budget: Duration, cond: impl Fn() -> bool) {
        if cond() {
            return;
        }
        let me = &self.seats[seat];
        if self.spin {
            let start = Instant::now();
            loop {
                for _ in 0..SPINS_PER_CLOCK_READ {
                    std::hint::spin_loop();
                    if cond() {
                        // Relaxed: a statistic, read only by `wait_counts`.
                        me.spin_hits.fetch_add(1, Relaxed);
                        return;
                    }
                }
                if start.elapsed() >= budget {
                    break;
                }
            }
        }
        for _ in 0..YIELDS_BEFORE_PARK {
            std::thread::yield_now();
            if cond() {
                return;
            }
        }
        // Relaxed: a statistic, read only by `wait_counts`.
        me.parks.fetch_add(1, Relaxed);
        // The mutex only ever guards a plain assignment, so a poisoned lock
        // still holds a valid value.
        *me.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        loop {
            // Store-then-load against the waker's store-then-load: either it
            // sees `parked` and unparks, or this check sees its write.
            me.parked.store(true, SeqCst);
            if cond() {
                break;
            }
            self.yield_point(Point::BeforePark, seat);
            std::thread::park();
        }
        me.parked.store(false, SeqCst);
    }

    /// Unpark `seat` if its occupant is parked or about to. Call after the
    /// `SeqCst` write that makes its condition true.
    fn wake(&self, seat: usize) {
        let target = &self.seats[seat];
        if target.parked.load(SeqCst) {
            if let Some(thread) = &*target.thread.lock().unwrap_or_else(PoisonError::into_inner) {
                thread.unpark();
            }
        }
    }
}

/// A sense-reversing barrier for the participants of a rendezvous epoch: the
/// symmetric reduction rounds and the phases of a fused solver step. The last
/// arrival flips the sense and wakes the parked; the others wait on the ladder.
struct RoundBarrier {
    arrived: Padded<AtomicUsize>,
    sense: Padded<AtomicBool>,
}

impl RoundBarrier {
    fn wait(&self, seats: &Seats, seat: usize) {
        let n = seats.seats.len();
        // The sense cannot flip before this seat arrives, so reading it first
        // is reading the sense of the round being joined.
        let sense = self.sense.0.load(SeqCst);
        seats.yield_point(Point::BarrierArrival, seat);
        if self.arrived.0.fetch_add(1, SeqCst) + 1 == n {
            self.arrived.0.store(0, SeqCst);
            self.sense.0.store(!sense, SeqCst);
            for other in (0..n).filter(|&s| s != seat) {
                seats.wake(other);
            }
        } else {
            seats.wait_until(seat, SPIN_BUDGET, || self.sense.0.load(SeqCst) != sense);
        }
    }
}

/// What a worker finds when the epoch word moves.
pub(crate) enum Turn<T> {
    /// Run block `seat` with this payload, then [`EpochGate::check_in`].
    Run(T),
    /// The submitter already ran this worker's block; wait for the next epoch.
    Stolen,
    /// The engine is being dropped.
    Shutdown,
}

/// How often the participants of a gate had to wait, and how.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub(crate) struct WaitCounts {
    pub(crate) parks: u64,
    pub(crate) spin_hits: u64,
}

/// The epoch gate of an `n`-block engine, carrying a payload `T` (the engine's
/// `Op`: the operation and its vector views) from the submitter to whoever
/// runs a block.
pub(crate) struct EpochGate<T> {
    seats: Seats,
    epoch: Padded<AtomicU64>,
    /// Blocks (claim epochs) or participants (rendezvous) yet to check in.
    remaining: Padded<AtomicUsize>,
    /// Per block: the last epoch word under which it was claimed.
    claims: Vec<Padded<AtomicU64>>,
    barrier: RoundBarrier,
    payload: UnsafeCell<T>,
}

// SAFETY: `payload` is the only field that is not already `Sync`. It is
// written by the submitter while no epoch is open (`open` takes the previous
// epoch's completion as a precondition, and `OpenEpoch` cannot be dropped
// before it) and read by copy only by a participant that the open epoch is
// still waiting for (`next_turn`), so a write never overlaps a read; the
// epoch-word store/load and the check-in RMW/load pairs order them.
unsafe impl<T: Copy + Send> Sync for EpochGate<T> {}

impl<T: Copy + Send> EpochGate<T> {
    /// A gate for `n` participants. It starts inside a pseudo-epoch that the
    /// `n − 1` workers [`check_in`](EpochGate::check_in) to once they are
    /// ready — the construction handshake the builder ends with
    /// [`wait_ready`](EpochGate::wait_ready).
    pub(crate) fn new(n: usize, idle: T) -> EpochGate<T> {
        assert!(n > 0, "an epoch gate needs at least one participant");
        EpochGate {
            seats: Seats::new(n),
            epoch: Padded(AtomicU64::new(0)),
            remaining: Padded(AtomicUsize::new(n - 1)),
            claims: (0..n).map(|_| Padded(AtomicU64::new(0))).collect(),
            barrier: RoundBarrier {
                arrived: Padded(AtomicUsize::new(0)),
                sense: Padded(AtomicBool::new(false)),
            },
            payload: UnsafeCell::new(idle),
        }
    }

    /// Seat 0, at construction: wait until every worker has checked in.
    pub(crate) fn wait_ready(&self) {
        self.wait_done(SPIN_BUDGET);
    }

    fn wait_done(&self, budget: Duration) {
        self.seats
            .wait_until(0, budget, || self.remaining.0.load(SeqCst) == 0);
    }

    fn publish(&self, word: u64) {
        debug_assert!(word > self.epoch.0.load(SeqCst), "epoch words only grow");
        self.epoch.0.store(word, SeqCst);
        for seat in 1..self.seats.seats.len() {
            self.seats.wake(seat);
        }
    }

    /// Seat 0: open epoch `word` with `payload` and wake the parked workers.
    /// The returned guard is the submitter's participation; dropping it —
    /// also by unwinding — waits until every block has been checked in, so
    /// whatever `payload` points at outlives every reader.
    ///
    /// The previous epoch must be complete, which the guard of the previous
    /// `open` (or `wait_ready`) guarantees.
    pub(crate) fn open(&self, word: u64, payload: T) -> OpenEpoch<'_, T> {
        debug_assert_ne!(kind_of(word), EpochKind::Shutdown);
        debug_assert_eq!(
            self.remaining.0.load(SeqCst),
            0,
            "previous epoch is complete"
        );
        // SAFETY: no epoch is open (asserted above), so no participant reads
        // the payload: workers read it only for an epoch that still awaits
        // their check-in.
        unsafe { *self.payload.get() = payload };
        self.remaining.0.store(self.seats.seats.len(), SeqCst);
        self.publish(word);
        OpenEpoch {
            gate: self,
            word,
            mine: 0,
            opened: Instant::now(),
        }
    }

    /// Seat 0: tell the workers to return. No check-in follows.
    pub(crate) fn shutdown(&self, word: u64) {
        debug_assert_eq!(kind_of(word), EpochKind::Shutdown);
        self.publish(word);
    }

    fn claim(&self, block: usize, seat: usize, word: u64) -> bool {
        self.seats.yield_point(Point::BeforeClaim, seat);
        #[cfg(test)]
        self.seats
            .chaos
            .starve_owner(seat, || self.claims[block].0.load(SeqCst) >= word);
        let won = self.claims[block].0.fetch_max(word, SeqCst) < word;
        self.seats.yield_point(Point::AfterClaim, seat);
        won
    }

    /// Worker `seat`: wait for the epoch word to leave `*seen`, record it, and
    /// report what this worker is to do.
    pub(crate) fn next_turn(&self, seat: usize, seen: &mut u64) -> Turn<T> {
        debug_assert!(seat > 0 && seat < self.seats.seats.len());
        let last = *seen;
        self.seats
            .wait_until(seat, SPIN_BUDGET, || self.epoch.0.load(SeqCst) != last);
        let word = self.epoch.0.load(SeqCst);
        *seen = word;
        match kind_of(word) {
            EpochKind::Shutdown => return Turn::Shutdown,
            EpochKind::Claim if !self.claim(seat, seat, word) => return Turn::Stolen,
            EpochKind::Claim | EpochKind::Rendezvous => {}
        }
        // This worker now holds a share of epoch `word` (its claimed block,
        // or its rendezvous seat), so the epoch cannot complete, and the next
        // cannot open, before it checks in.
        debug_assert!(self.remaining.0.load(SeqCst) > 0);
        debug_assert_eq!(self.epoch.0.load(SeqCst), word);
        // SAFETY: the submitter wrote the payload before storing `word` and
        // writes it again only after this worker's check-in (see `open`).
        Turn::Run(unsafe { *self.payload.get() })
    }

    /// Any seat: `count` shares of the open epoch (or of the construction
    /// handshake) are done. The last check-in wakes seat 0.
    pub(crate) fn check_in(&self, seat: usize, count: usize) {
        self.seats.yield_point(Point::BeforeCheckIn, seat);
        let before = self.remaining.0.fetch_sub(count, SeqCst);
        debug_assert!(before >= count, "more check-ins than shares");
        if before == count && seat != 0 {
            self.seats.wake(0);
        }
    }

    /// Any seat, inside a rendezvous epoch: meet the other participants.
    pub(crate) fn barrier(&self, seat: usize) {
        self.barrier.wait(&self.seats, seat);
    }

    /// Totals over all seats since construction.
    pub(crate) fn wait_counts(&self) -> WaitCounts {
        let sum = |f: fn(&Seat) -> &AtomicU64| {
            // Relaxed: statistics, no other data is read through them.
            self.seats.seats.iter().map(|s| f(s).load(Relaxed)).sum()
        };
        WaitCounts {
            parks: sum(|s| &s.parks),
            spin_hits: sum(|s| &s.spin_hits),
        }
    }

    /// Arm the schedule hook (see [`chaos`]).
    #[cfg(test)]
    pub(crate) fn set_chaos(&self, seed: u64, starve_owners: bool) {
        self.seats.chaos.arm(seed, starve_owners);
    }

    /// Workers parked or about to park.
    #[cfg(test)]
    pub(crate) fn parked_workers(&self) -> usize {
        let parked = |s: &&Seat| s.parked.load(SeqCst);
        self.seats.seats[1..].iter().filter(parked).count()
    }
}

/// Seat 0's share of an open epoch; see [`EpochGate::open`].
pub(crate) struct OpenEpoch<'a, T: Copy + Send> {
    gate: &'a EpochGate<T>,
    word: u64,
    /// Blocks seat 0 claimed.
    mine: usize,
    opened: Instant,
}

impl<T: Copy + Send> OpenEpoch<'_, T> {
    /// Try to take `block`; `true` means the caller must run it before
    /// dropping the guard. Block 0 is seat 0's in every kind of epoch (no
    /// worker claims it); the others are claimable in claim epochs only.
    pub(crate) fn claim(&mut self, block: usize) -> bool {
        debug_assert!(block == 0 || kind_of(self.word) == EpochKind::Claim);
        let won = self.gate.claim(block, 0, self.word);
        self.mine += won as usize;
        won
    }
}

impl<T: Copy + Send> Drop for OpenEpoch<'_, T> {
    fn drop(&mut self) {
        self.gate.check_in(0, self.mine);
        // The shares still out are of the size of the ones seat 0 just ran,
        // so they are about to come in: spin for as long as the epoch has
        // already cost. Parking instead added a system call on each side and
        // a wake (30 µs measured) to a 0.3 ms epoch; spinning at most doubles
        // what seat 0 spent on the epoch before it sleeps after all.
        self.gate.wait_done(self.opened.elapsed().max(SPIN_BUDGET));
    }
}

/// The test-only schedule hook: seeded delays at the protocol's yield points,
/// so the stress tests explore interleavings a quiet host never produces.
#[cfg(test)]
mod chaos {
    use super::Point;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Duration;

    #[derive(Default)]
    pub(super) struct Chaos {
        /// 0 = off.
        seed: AtomicU64,
        ticks: AtomicU64,
        starve_owners: AtomicBool,
    }

    impl Chaos {
        // Relaxed throughout: the hook only perturbs timing; nothing is
        // published through these words.
        pub(super) fn arm(&self, seed: u64, starve_owners: bool) {
            self.seed.store(seed, Relaxed);
            self.starve_owners.store(starve_owners, Relaxed);
        }

        /// Nothing, a yield, or a few microseconds of sleep, chosen by hashing
        /// (seed, point, seat, how many points were passed so far).
        pub(super) fn at(&self, point: Point, seat: usize) {
            let seed = self.seed.load(Relaxed);
            if seed == 0 {
                return;
            }
            let tick = self.ticks.fetch_add(1, Relaxed);
            let mut h = seed ^ (point as u64) << 56 ^ (seat as u64) << 48 ^ tick;
            // splitmix64 finalizer
            h = (h ^ h >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ h >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
            match h % 4 {
                0 => std::thread::yield_now(),
                1 => std::thread::sleep(Duration::from_micros(1 + (h >> 8) % 8)),
                _ => {}
            }
        }

        /// With `starve_owners` armed, hold a worker at before-claim until its
        /// block has been claimed by someone else — the submitter, which
        /// always gets to it — so every claim epoch is stolen in full.
        pub(super) fn starve_owner(&self, seat: usize, claimed: impl Fn() -> bool) {
            if seat != 0 && self.starve_owners.load(Relaxed) {
                while !claimed() {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpmvEngine;
    use spmv_core::multivec::MultiVec;
    use spmv_core::solver::{SerialCg, SerialPower};
    use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
    use spmv_core::SpMv;
    use spmv_testutil::{banded_spd_system, random_csr, spd_system, test_x, xblock};
    use std::sync::{mpsc, Arc};

    const PARTICIPANTS: [usize; 5] = [1, 2, 3, 5, 8];

    /// Run `body` on its own thread; a protocol that deadlocks fails the test
    /// instead of hanging the suite.
    fn watchdog<R: Send + 'static>(what: &str, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        match rx.recv_timeout(Duration::from_secs(300)) {
            Ok(result) => {
                runner.join().expect("the body already returned");
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no progress, deadlocked"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the sender is dropped only by a panic"),
            },
        }
    }

    /// A gate of `n` participants whose workers record, per block, the payload
    /// of the last epoch that ran it — asserting it was the epoch before.
    struct Harness {
        gate: Arc<EpochGate<u64>>,
        last_run: Arc<Vec<AtomicU64>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    fn run_once(last_run: &[AtomicU64], block: usize, epoch: u64) {
        let before = last_run[block].swap(epoch, SeqCst);
        assert_eq!(before + 1, epoch, "block {block} skipped or repeated");
    }

    impl Harness {
        fn new(n: usize, seed: u64, starve_owners: bool) -> Harness {
            let gate = Arc::new(EpochGate::new(n, 0u64));
            gate.set_chaos(seed, starve_owners);
            let last_run: Arc<Vec<AtomicU64>> =
                Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
            let workers = (1..n)
                .map(|seat| {
                    let (gate, last_run) = (Arc::clone(&gate), Arc::clone(&last_run));
                    std::thread::spawn(move || {
                        gate.check_in(seat, 1);
                        let mut seen = 0;
                        loop {
                            match gate.next_turn(seat, &mut seen) {
                                Turn::Shutdown => return,
                                Turn::Stolen => {}
                                Turn::Run(epoch) => {
                                    run_once(&last_run, seat, epoch);
                                    gate.check_in(seat, 1);
                                }
                            }
                        }
                    })
                })
                .collect();
            gate.wait_ready();
            Harness {
                gate,
                last_run,
                workers,
            }
        }

        /// One claim epoch; returns how many blocks seat 0 ran.
        fn claim_epoch(&self, epoch: u64) -> usize {
            let mut open = self.gate.open(epoch_word(epoch, EpochKind::Claim), epoch);
            let mut mine = 0;
            for block in 0..self.last_run.len() {
                if open.claim(block) {
                    run_once(&self.last_run, block, epoch);
                    mine += 1;
                }
            }
            mine
        }

        fn finish(self, epochs: u64) {
            self.gate
                .shutdown(epoch_word(epochs + 1, EpochKind::Shutdown));
            for worker in self.workers {
                worker.join().expect("worker exits cleanly");
            }
            for (block, last) in self.last_run.iter().enumerate() {
                assert_eq!(last.load(SeqCst), epochs, "block {block}");
            }
        }
    }

    #[test]
    fn epoch_words_grow_with_the_sequence_whatever_the_kind() {
        let kinds = [EpochKind::Claim, EpochKind::Rendezvous, EpochKind::Shutdown];
        for seq in 1..40u64 {
            for a in kinds {
                assert_eq!(kind_of(epoch_word(seq, a)), a);
                for b in kinds {
                    assert!(epoch_word(seq, a) < epoch_word(seq + 1, b));
                }
            }
        }
    }

    #[test]
    fn every_block_of_a_claim_epoch_runs_exactly_once() {
        for n in PARTICIPANTS {
            for seed in 1..=16u64 {
                watchdog("claim epochs", move || {
                    let h = Harness::new(n, seed, false);
                    for epoch in 1..=40 {
                        assert!(h.claim_epoch(epoch) >= 1, "seat 0 always gets block 0");
                    }
                    h.finish(40);
                });
            }
        }
    }

    #[test]
    fn starved_owners_have_every_block_stolen() {
        for n in PARTICIPANTS {
            watchdog("starved owners", move || {
                let h = Harness::new(n, 7, true);
                for epoch in 1..=20 {
                    assert_eq!(h.claim_epoch(epoch), n, "seat 0 runs every block");
                }
                h.finish(20);
            });
        }
    }

    /// A parked worker is woken by the next epoch and by shutdown alike, and a
    /// worker that never parked (the epoch before was a moment ago) as well.
    #[test]
    fn parked_and_spinning_workers_both_see_the_next_epoch_and_shutdown() {
        for n in [2usize, 3, 8] {
            for seed in [0u64, 3] {
                watchdog("park then wake", move || {
                    let h = Harness::new(n, seed, false);
                    h.claim_epoch(1);
                    h.claim_epoch(2); // back to back: workers are still on the ladder
                    while h.gate.parked_workers() < n - 1 {
                        std::thread::yield_now();
                    }
                    assert!(h.gate.wait_counts().parks >= (n - 1) as u64);
                    h.claim_epoch(3); // every worker is parked (or about to)
                    while h.gate.parked_workers() < n - 1 {
                        std::thread::yield_now();
                    }
                    h.finish(3); // shutdown reaches parked workers
                });
                watchdog("shutdown while spinning", move || {
                    let h = Harness::new(n, seed, false);
                    h.claim_epoch(1);
                    h.finish(1);
                });
            }
        }
    }

    /// Rendezvous epochs: between two barrier waits every participant sees
    /// every other participant's write of the round, and nobody runs ahead.
    #[test]
    fn the_barrier_separates_the_rounds_of_a_rendezvous_epoch() {
        const ROUNDS: u64 = 12;
        fn rounds(gate: &EpochGate<u64>, board: &[AtomicU64], seat: usize, epoch: u64) {
            for round in 1..=ROUNDS {
                // Relaxed: the barrier is what is under test — it alone must
                // order these writes before the reads below.
                board[seat].store(epoch * 100 + round, Relaxed);
                gate.barrier(seat);
                for slot in board {
                    assert_eq!(slot.load(Relaxed), epoch * 100 + round);
                }
                gate.barrier(seat);
            }
        }
        for n in PARTICIPANTS {
            for seed in 1..=8u64 {
                watchdog("rendezvous rounds", move || {
                    let gate = Arc::new(EpochGate::new(n, 0u64));
                    gate.set_chaos(seed, false);
                    let board: Arc<Vec<AtomicU64>> =
                        Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
                    let workers: Vec<_> = (1..n)
                        .map(|seat| {
                            let (gate, board) = (Arc::clone(&gate), Arc::clone(&board));
                            std::thread::spawn(move || {
                                gate.check_in(seat, 1);
                                let mut seen = 0;
                                while let Turn::Run(epoch) = gate.next_turn(seat, &mut seen) {
                                    rounds(&gate, &board, seat, epoch);
                                    gate.check_in(seat, 1);
                                }
                            })
                        })
                        .collect();
                    gate.wait_ready();
                    for epoch in 1..=6 {
                        let mut open = gate.open(epoch_word(epoch, EpochKind::Rendezvous), epoch);
                        assert!(open.claim(0), "block 0 is seat 0's");
                        rounds(&gate, &board, 0, epoch);
                    }
                    gate.shutdown(epoch_word(7, EpochKind::Shutdown));
                    for worker in workers {
                        worker.join().expect("worker exits cleanly");
                    }
                });
            }
        }
    }

    /// A submitter that unwinds out of its block still waits for the epoch.
    #[test]
    fn an_unwinding_submitter_waits_for_the_open_epoch() {
        watchdog("unwinding submitter", || {
            let h = Harness::new(3, 5, false);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut open = h.gate.open(epoch_word(1, EpochKind::Claim), 1);
                assert!(open.claim(0));
                run_once(&h.last_run, 0, 1);
                std::panic::resume_unwind(Box::new("kernel panicked"));
            }));
            assert!(unwound.is_err());
            // The guard's drop ran during the unwind: every block is checked in.
            assert_eq!(h.gate.remaining.0.load(SeqCst), 0);
            for last in h.last_run.iter() {
                assert_eq!(last.load(SeqCst), 1);
            }
            h.claim_epoch(2);
            h.finish(2);
        });
    }

    // --- the engine on top of the protocol, under explored schedules ---------

    struct References {
        general: spmv_core::formats::CsrMatrix,
        plan: TunePlan,
        spmv: Vec<f64>,
        spmm: MultiVec,
        sym: spmv_testutil::SpdSystem,
        sym_plan: TunePlan,
        sym_spmv: Vec<f64>,
        sym_cg: CgRefs,
        /// A banded SPD system whose symmetric plan, on a SIMD host, stores
        /// `SymBcsr` r×4 slabs that run the vector kernel.
        banded: spmv_testutil::SpdSystem,
        banded_plan: TunePlan,
        banded_spmv: Vec<f64>,
        banded_cg: CgRefs,
        /// The SPD system under a general (`exploit_symmetry: false`) plan.
        spd_general_plan: TunePlan,
        spd_general_cg: CgRefs,
        power_lambda: f64,
    }

    /// The serial CG trajectory an engine must reproduce: `r·r` and `x` after
    /// three steps and after the fourth.
    struct CgRefs {
        rr3: f64,
        x3: Vec<f64>,
        rr4: f64,
        x4: Vec<f64>,
    }

    fn cg_refs(prepared: PreparedMatrix, rhs: &[f64]) -> CgRefs {
        let mut cg = SerialCg::new(prepared, rhs).unwrap();
        for _ in 0..3 {
            cg.step();
        }
        let (rr3, x3) = (cg.rr(), cg.solution().to_vec());
        cg.step();
        CgRefs {
            rr3,
            x3,
            rr4: cg.rr(),
            x4: cg.solution().to_vec(),
        }
    }

    fn references(participants: usize) -> References {
        let general = random_csr(131, 117, 1900, 40 + participants as u64);
        let plan = TunePlan::new(&general, participants, &TuningConfig::full());
        assert!(!plan.symmetric);
        let prepared = PreparedMatrix::materialize(&general, &plan).unwrap();
        let mut spmv = vec![0.5; 131];
        prepared.spmv(&test_x(117), &mut spmv);
        let mut spmm = MultiVec::zeros(131, 4);
        prepared.spmm(&xblock(117, 4), &mut spmm);

        let sym = spd_system(96, 50 + participants as u64);
        let sym_plan = TunePlan::new_symmetric(&sym.matrix, participants, &TuningConfig::full());
        let sym_plan = sym_plan.unwrap();
        let sym_prepared = PreparedMatrix::materialize(&sym.matrix, &sym_plan).unwrap();
        let mut sym_spmv = vec![0.25; 96];
        sym_prepared.spmv(&test_x(96), &mut sym_spmv);
        let sym_cg = cg_refs(sym_prepared.clone(), &sym.rhs);
        let mut power = SerialPower::new(sym_prepared, &test_x(96)).unwrap();

        let banded = banded_spd_system(101, 15, 60 + participants as u64);
        let banded_plan =
            TunePlan::new_symmetric(&banded.matrix, participants, &TuningConfig::full());
        let banded_plan = banded_plan.unwrap();
        for t in &banded_plan.threads {
            let c = &t.decisions[0].choice;
            assert_eq!(t.simd, spmv_core::kernels::simd::available());
            assert!(
                !t.simd
                    || (c.kind == spmv_core::tuning::FormatKind::SymBcsr
                        && spmv_core::kernels::simd::bcsr_simd_shape(c.r, c.c)),
                "banded slabs run the vector SymBcsr kernel: {c:?}"
            );
        }
        let banded_prepared = PreparedMatrix::materialize(&banded.matrix, &banded_plan).unwrap();
        let mut banded_spmv = vec![0.25; 101];
        banded_prepared.spmv(&test_x(101), &mut banded_spmv);
        let banded_cg = cg_refs(banded_prepared, &banded.rhs);

        let general_config = TuningConfig {
            exploit_symmetry: false,
            ..TuningConfig::full()
        };
        let spd_general_plan = TunePlan::new(&sym.matrix, participants, &general_config);
        assert!(!spd_general_plan.symmetric);
        let spd_general_cg = cg_refs(
            PreparedMatrix::materialize(&sym.matrix, &spd_general_plan).unwrap(),
            &sym.rhs,
        );
        References {
            general,
            plan,
            spmv,
            spmm,
            sym_spmv,
            sym_cg,
            spd_general_plan,
            spd_general_cg,
            power_lambda: power.step(),
            sym,
            sym_plan,
            banded,
            banded_plan,
            banded_spmv,
            banded_cg,
        }
    }

    /// `cg_init` + `cg_step(3)`, then a `cg_load` of the engine's own state
    /// and `cg_step(1)`: bit-identical to serial steps three and four.
    fn check_cg(engine: &mut SpmvEngine, rhs: &[f64], refs: &CgRefs, context: &str) {
        let rr = engine.cg_init(rhs);
        let rr = engine.cg_step(3, rr);
        assert_eq!(rr.to_bits(), refs.rr3.to_bits(), "cg_step(3) rr, {context}");
        let (x, r, p) = engine.solver_state().unwrap();
        assert_eq!(x, &refs.x3[..], "cg x, {context}");
        let (x, r, p) = (x.to_vec(), r.to_vec(), p.to_vec());
        engine.cg_load(&x, &r, &p);
        let rr = engine.cg_step(1, rr);
        assert_eq!(rr.to_bits(), refs.rr4.to_bits(), "cg_load rr, {context}");
        assert_eq!(
            engine.solver_state().unwrap().0,
            &refs.x4[..],
            "cg_load x, {context}"
        );
    }

    /// Wait (yielding, under the caller's watchdog) until every worker of
    /// `engine` is parked or about to park.
    fn let_workers_park(engine: &SpmvEngine) {
        while engine.parked_workers() + 1 < engine.num_threads() {
            std::thread::yield_now();
        }
    }

    /// 64 seeds × participants {1, 2, 3, 5, 8} × every kind of epoch, each
    /// bit-identical to its serial reference; the CG epochs (a `cg_load`
    /// included) run on symmetric and general plans, and on a banded symmetric
    /// plan whose slabs run the vector `SymBcsr` kernel on SIMD hosts, so the
    /// scratch fold is explored over both slab kinds. Every eighth seed starves
    /// the owners at before-claim, so the caller must steal every block.
    #[test]
    fn explored_schedules_stay_bit_identical_to_the_serial_references() {
        for participants in PARTICIPANTS {
            watchdog("explored schedules", move || {
                let refs = references(participants);
                let mut general = SpmvEngine::from_plan(&refs.general, &refs.plan).unwrap();
                let mut sym = SpmvEngine::from_plan(&refs.sym.matrix, &refs.sym_plan).unwrap();
                let mut banded =
                    SpmvEngine::from_plan(&refs.banded.matrix, &refs.banded_plan).unwrap();
                let mut spd_general =
                    SpmvEngine::from_plan(&refs.sym.matrix, &refs.spd_general_plan).unwrap();
                let swap_plan =
                    TunePlan::new(&refs.general, participants % 3 + 1, &TuningConfig::naive());
                let mut swap_ref = vec![0.5; 131];
                PreparedMatrix::materialize(&refs.general, &swap_plan)
                    .unwrap()
                    .spmv(&test_x(117), &mut swap_ref);
                let (x, xs, sym_x) = (test_x(117), xblock(117, 4), test_x(96));

                for seed in 1..=64u64 {
                    let starve = seed % 8 == 0;
                    let context = format!("participants={participants} seed={seed}");
                    general.set_chaos(seed, starve);
                    sym.set_chaos(seed, starve);
                    banded.set_chaos(seed, starve);
                    spd_general.set_chaos(seed, starve);
                    let stolen_before = general.profile().stolen_blocks;

                    let mut y = vec![0.5; 131];
                    general.spmv(&x, &mut y);
                    assert_eq!(y, refs.spmv, "spmv, {context}");
                    let mut ys = MultiVec::zeros(131, 4);
                    general.spmm(&xs, &mut ys);
                    assert_eq!(ys, refs.spmm, "spmm k=4, {context}");
                    if starve {
                        assert_eq!(
                            general.profile().stolen_blocks - stolen_before,
                            2 * (participants as u64 - 1),
                            "a starved owner's block is stolen, {context}"
                        );
                    }

                    let mut y = vec![0.25; 96];
                    sym.spmv(&sym_x, &mut y);
                    assert_eq!(y, refs.sym_spmv, "symmetric spmv, {context}");
                    check_cg(&mut sym, &refs.sym.rhs, &refs.sym_cg, &context);
                    let mut y = vec![0.25; 101];
                    banded.spmv(&test_x(101), &mut y);
                    assert_eq!(y, refs.banded_spmv, "banded symmetric spmv, {context}");
                    check_cg(
                        &mut banded,
                        &refs.banded.rhs,
                        &refs.banded_cg,
                        &format!("banded symmetric plan, {context}"),
                    );
                    check_cg(
                        &mut spd_general,
                        &refs.sym.rhs,
                        &refs.spd_general_cg,
                        &format!("general plan, {context}"),
                    );
                    sym.power_init(&sym_x);
                    let lambda = sym.power_step();
                    assert_eq!(
                        lambda.to_bits(),
                        refs.power_lambda.to_bits(),
                        "power_step, {context}"
                    );

                    // swap_with mid-stream: the slot serves the new plan, the
                    // returned engine the old one; swap back and drop the
                    // replacement — on even seeds right away (its workers are
                    // still spinning or yielding), on odd seeds once parked.
                    let replacement = SpmvEngine::from_plan(&refs.general, &swap_plan).unwrap();
                    replacement.set_chaos(seed, starve);
                    let mut old = general.swap_with(replacement);
                    let mut y = vec![0.5; 131];
                    general.spmv(&x, &mut y);
                    assert_eq!(y, swap_ref, "post-swap, {context}");
                    let mut y = vec![0.5; 131];
                    old.spmv(&x, &mut y);
                    assert_eq!(y, refs.spmv, "swapped-out engine, {context}");
                    let replacement = general.swap_with(old);
                    if seed % 2 == 1 {
                        let_workers_park(&replacement);
                    }
                    drop(replacement);
                }
                let_workers_park(&sym);
                drop(sym);
            });
        }
    }
}
