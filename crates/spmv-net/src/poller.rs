//! The one blocking wait of the server: `poll(2)` over a thread's sockets
//! plus a self-pipe other threads poke.
//!
//! std has no readiness API, so this module carries the crate's single
//! foreign declaration — `poll`, from the C library every Rust program on
//! unix already links — and its single `unsafe` block. A [`Poller`] belongs
//! to one thread (a shard or the listener); its [`Waker`] is shared with
//! whoever produces events for that thread: the batchers' batch-done
//! callbacks, the listener handing over a connection, `shutdown()`.
//!
//! ## Wake protocol
//!
//! A producer first **publishes** its event (sends the ticket replies, pushes
//! the connection onto the hand-off channel, stores the shutdown flag) and
//! then calls [`Waker::wake`], which swaps `notified` to `true` and writes one
//! byte to the pipe *only if the flag was clear* — one wake-up per burst of
//! events, no syscall while one is already on its way. The consumer, when
//! [`Poller::wait`] finds the pipe readable, **drains the pipe, then swaps
//! `notified` back to `false`, and only then returns** to scan its tickets,
//! hand-off channel and sockets. No event can be lost:
//!
//! * a producer that found the flag set skipped its write, but its swap
//!   precedes the consumer's clearing swap in the flag's modification order,
//!   so the clearing swap reads from it (both are `SeqCst` read-modify-writes:
//!   release on the producer, acquire on the consumer) and the scan that
//!   follows sees the published event;
//! * a producer that found the flag clear writes a byte after the consumer
//!   last drained, so the next `poll` returns at once (the pipe is
//!   level-triggered) and the scan after it sees the event.
//!
//! Clearing *before* draining would break the second case: a byte written
//! between the two steps would be drained while the flag stays set, and every
//! later producer would skip its write. Spurious wake-ups (a byte that
//! arrives after its event was already seen) cost one empty scan.

use std::io::{Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Interest in readability (`POLLIN`). Errors and hang-ups are reported for
/// every registered socket whatever its interest, and surface as the error or
/// end-of-file of the caller's next `read`/`write`.
pub(crate) const READ: c_short = 0x001;
/// Interest in writability (`POLLOUT`).
pub(crate) const WRITE: c_short = 0x004;

/// The producer side of a [`Poller`]'s self-pipe.
pub(crate) struct Waker {
    notified: AtomicBool,
    pipe: UnixStream,
}

impl Waker {
    /// Make the owning thread's current or next [`Poller::wait`] return. Call
    /// it *after* publishing the event it announces (module docs).
    pub(crate) fn wake(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            // Non-blocking and unchecked: the flag bounds the bytes in flight
            // by the number of producers, far below the pipe's capacity, and
            // a write that failed anyway would mean a byte is already there.
            let _ = (&self.pipe).write(&[1]);
        }
    }
}

/// A thread's blocking wait over its sockets and its wake pipe.
pub(crate) struct Poller {
    pipe: UnixStream,
    waker: Arc<Waker>,
    fds: Vec<PollFd>,
}

impl Poller {
    pub(crate) fn new() -> std::io::Result<Poller> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Poller {
            pipe: rx,
            waker: Arc::new(Waker {
                notified: AtomicBool::new(false),
                pipe: tx,
            }),
            fds: Vec::new(),
        })
    }

    /// The handle producers use to wake this poller's thread.
    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Block until one of `sockets` is ready for its `(fd, interest)`, the
    /// waker fires, or `deadline` passes (`None`: no timeout). Which of them
    /// it was is not reported: every caller re-scans all of its event sources
    /// after every return, which also makes a spurious return harmless.
    pub(crate) fn wait(
        &mut self,
        sockets: impl Iterator<Item = (RawFd, c_short)>,
        deadline: Option<Instant>,
    ) {
        self.fds.clear();
        self.fds.push(PollFd {
            fd: self.pipe.as_raw_fd(),
            events: READ,
            revents: 0,
        });
        self.fds.extend(sockets.map(|(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        }));
        // Round up: returning a millisecond early would turn the tail of a
        // deadline wait into a spin.
        let timeout = deadline.map_or(-1, |deadline| {
            let left = deadline.saturating_duration_since(Instant::now());
            c_int::try_from(left.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` is an exclusively borrowed, live `Vec` of
        // `#[repr(C)]` structs laid out as `struct pollfd`; pointer and length
        // come from that same `Vec`, and `poll` reads `fd`/`events` and writes
        // `revents` of exactly those `len` entries, nothing else. Every `fd`
        // is kept open by the caller's borrow of its socket for the duration
        // of the call (a stale fd would be reported as `POLLNVAL`, not be UB).
        let ready = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout) };
        // `ready < 0` is EINTR (or a transient ENOMEM): a spurious return.
        if ready > 0 && self.fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.pipe).read(&mut sink), Ok(n) if n == sink.len()) {}
            self.waker.notified.swap(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_wake_before_the_wait_is_not_lost_and_bursts_coalesce() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        for _ in 0..100 {
            waker.wake();
        }
        // Returns at once (no deadline: a lost wake-up would hang here)…
        poller.wait(std::iter::empty(), None);
        // …and the hundred wakes left one byte, now drained: the next wait
        // runs into its deadline.
        let start = Instant::now();
        poller.wait(std::iter::empty(), Some(start + Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn every_published_event_is_seen_by_a_consumer_that_blocks_in_between() {
        use std::sync::atomic::AtomicUsize;
        let mut poller = Poller::new().unwrap();
        let published = Arc::new(AtomicUsize::new(0));
        const PRODUCERS: usize = 3;
        const EVENTS: usize = 2_000;
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (waker, published) = (poller.waker(), Arc::clone(&published));
                std::thread::spawn(move || {
                    for _ in 0..EVENTS {
                        published.fetch_add(1, Ordering::SeqCst);
                        waker.wake();
                    }
                })
            })
            .collect();
        // Scan, then block with no timeout: if a wake-up is ever lost while
        // events are still owed, this thread sleeps forever and the test
        // times out instead of being rescued by a timer.
        while published.load(Ordering::SeqCst) < PRODUCERS * EVENTS {
            poller.wait(std::iter::empty(), None);
        }
        for producer in producers {
            producer.join().unwrap();
        }
    }

    #[test]
    fn socket_readiness_and_write_interest_wake_the_wait() {
        let mut poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        // Nothing to read yet: only the deadline ends the wait.
        let start = Instant::now();
        poller.wait(
            std::iter::once((a.as_raw_fd(), READ)),
            Some(start + Duration::from_millis(20)),
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        // An empty socket is writable: write interest returns at once.
        poller.wait(std::iter::once((a.as_raw_fd(), READ | WRITE)), None);
        b.write_all(b"x").unwrap();
        poller.wait(std::iter::once((a.as_raw_fd(), READ)), None);
        drop(b);
        // A hang-up is reported without any interest bits beyond READ.
        poller.wait(std::iter::once((a.as_raw_fd(), READ)), None);
    }
}
