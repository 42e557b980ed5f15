//! The batcher's own suite: batch composition, admission control, the failure
//! paths, and — since no timer exists to paper over a lost wake-up — the
//! wake-up protocol between `submit`, the service thread and the batch-done
//! callback. Public API only, so the workspace root surfaces this file to
//! tier-1 through `tests/serve_net_suites.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_core::tuning::TuningConfig;
use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry, ServeError, ServedMatrix, Ticket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Iterations of every test that races threads against the wake-up protocol.
const ROUNDS: usize = 50;

fn served(seed: u64) -> Arc<ServedMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(48, 36);
    for _ in 0..500 {
        coo.push(
            rng.random_range(0..48),
            rng.random_range(0..36),
            rng.random_range(-1.0..1.0),
        );
    }
    let csr = CsrMatrix::from_coo(&coo);
    let registry = MatrixRegistry::new(2, TuningConfig::full());
    registry.insert("m", &csr).unwrap()
}

fn request_x(j: usize) -> Vec<f64> {
    (0..36)
        .map(|i| ((i * 7 + j * 3) % 23) as f64 * 0.5)
        .collect()
}

#[test]
fn manual_mode_serves_a_burst_as_one_batch() {
    let batcher = Batcher::manual(served(1), BatchPolicy::default());
    let tickets: Vec<Ticket> = (0..8)
        .map(|j| batcher.submit(request_x(j)).unwrap())
        .collect();
    assert_eq!(batcher.pending(), 8);
    assert_eq!(batcher.run_once(), 8);
    for (j, ticket) in tickets.into_iter().enumerate() {
        let y = ticket.wait().unwrap();
        assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
    }
    let report = batcher.stats().snapshot();
    assert_eq!(report.batches, 1);
    assert_eq!(report.requests, 8);
    assert_eq!(report.batch_k_histogram, vec![(8, 1)]);
}

#[test]
fn manual_mode_splits_oversized_bursts_at_max_batch() {
    let batcher = Batcher::manual(served(2), BatchPolicy { max_batch: 4 });
    let tickets: Vec<Ticket> = (0..10)
        .map(|j| batcher.submit(request_x(j)).unwrap())
        .collect();
    assert_eq!(batcher.run_once(), 4);
    assert_eq!(batcher.run_once(), 4);
    assert_eq!(batcher.run_once(), 2);
    assert_eq!(batcher.run_once(), 0);
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let report = batcher.stats().snapshot();
    assert_eq!(report.batches, 3);
    assert!((report.avg_batch - 10.0 / 3.0).abs() < 1e-12);
}

#[test]
fn background_mode_serves_concurrent_clients_correctly() {
    let batcher = Arc::new(Batcher::spawn(served(3), BatchPolicy { max_batch: 4 }));
    let handles: Vec<_> = (0..12)
        .map(|j| {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                let y = batcher.apply(request_x(j)).unwrap();
                (j, y)
            })
        })
        .collect();
    for handle in handles {
        let (j, y) = handle.join().unwrap();
        assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
    }
    let report = batcher.stats().snapshot();
    assert_eq!(report.requests, 12);
    assert!(report.batches >= 3, "4-wide cap means at least 3 batches");
    assert!(report.busy_gflops > 0.0);
    assert!(report.max_latency >= report.mean_latency);
}

#[test]
fn shutdown_flushes_pending_requests() {
    let matrix = served(4);
    for _ in 0..ROUNDS {
        let mut batcher = Batcher::isolated(Arc::clone(&matrix), BatchPolicy { max_batch: 64 });
        let tickets: Vec<Ticket> = (0..5)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        // The service may start and be closed before it ever ran: the final
        // flush, not a timer, is what serves the five.
        batcher.start_service();
        drop(batcher); // close + flush + join
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "pending requests are flushed on drop"
            );
        }
    }
}

/// What queued before the service was free is cut as ONE batch the moment it
/// is: the backlog, not an age timer, is the coalescing window.
#[test]
fn a_starting_service_cuts_the_whole_backlog_as_one_batch() {
    let matrix = served(20);
    for _ in 0..ROUNDS {
        let mut batcher = Batcher::isolated(Arc::clone(&matrix), BatchPolicy { max_batch: 64 });
        let tickets: Vec<Ticket> = (0..5)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        batcher.start_service();
        for (j, ticket) in tickets.into_iter().enumerate() {
            let y = ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("no ticket may hang")
                .unwrap();
            assert_eq!(y, matrix.spmv_now(&request_x(j)).unwrap());
        }
        assert_eq!(batcher.stats().snapshot().batch_k_histogram, vec![(5, 1)]);
    }
}

/// A lone request on an idle, wide-batch service: nothing will ever join it
/// and no age timer exists to cut it loose — only `submit`'s wake-up does.
#[test]
fn a_lone_request_on_an_idle_service_is_served_at_once() {
    let matrix = served(21);
    let batcher = Batcher::spawn(Arc::clone(&matrix), BatchPolicy { max_batch: 64 });
    for j in 0..ROUNDS {
        let y = batcher
            .submit(request_x(j))
            .unwrap()
            .wait_timeout(Duration::from_secs(10))
            .expect("a lost wake-up would hang here")
            .unwrap();
        assert_eq!(y, matrix.spmv_now(&request_x(j)).unwrap());
    }
    let report = batcher.stats().snapshot();
    assert_eq!(report.batch_k_histogram, vec![(1, ROUNDS)]);
}

/// The k = 1 batch moves its vector in and its result out; the k = 2 batch
/// copies. Same kernel, same block layout, same bits.
#[test]
fn a_one_request_batch_is_bit_identical_to_the_same_request_in_a_wider_batch() {
    let batcher = Batcher::manual(served(22), BatchPolicy::default());
    let alone = batcher.submit(request_x(3)).unwrap();
    assert_eq!(batcher.run_once(), 1);
    let paired = batcher.submit(request_x(3)).unwrap();
    let other = batcher.submit(request_x(4)).unwrap();
    assert_eq!(batcher.run_once(), 2);
    let alone = alone.wait().unwrap();
    assert_eq!(alone, paired.wait().unwrap());
    assert_eq!(alone, batcher.matrix().spmv_now(&request_x(3)).unwrap());
    assert_eq!(
        other.wait().unwrap(),
        batcher.matrix().spmv_now(&request_x(4)).unwrap()
    );
}

/// The batch-done callback runs once per batch — failed batches included —
/// and only after every reply of that batch was sent. Manual mode makes the
/// batch composition exact, and the callback itself looks at the tickets.
#[test]
fn batch_done_fires_once_per_batch_after_its_replies() {
    let tickets: Arc<Mutex<Vec<Ticket>>> = Arc::default();
    let calls = Arc::new(AtomicUsize::new(0));
    let batcher = {
        let (tickets, calls) = (Arc::clone(&tickets), Arc::clone(&calls));
        Batcher::manual(served(23), BatchPolicy { max_batch: 4 }).with_batch_done(move || {
            let batches = calls.fetch_add(1, Ordering::SeqCst) + 1;
            let tickets = tickets.lock().unwrap();
            let served = (4 * batches).min(tickets.len());
            assert!(
                tickets[served.saturating_sub(4)..served]
                    .iter()
                    .all(|t| t.try_wait().is_some()),
                "batch_done ran before the batch's last reply"
            );
            assert!(tickets[served..].iter().all(|t| t.try_wait().is_none()));
        })
    };
    batcher.inject_batch_panics(1);
    for j in 0..10 {
        let ticket = batcher.submit(request_x(j)).unwrap();
        tickets.lock().unwrap().push(ticket);
    }
    for (batch, width) in [4, 4, 2, 0].into_iter().enumerate() {
        assert_eq!(batcher.run_once(), width);
        assert_eq!(calls.load(Ordering::SeqCst), (batch + 1).min(3));
    }
}

/// The same contract on the service thread, driven the way the network shard
/// drives it: block on the callback alone, never on a ticket.
#[test]
fn a_caller_blocked_on_batch_done_alone_sees_every_ticket_resolve() {
    let matrix = served(25);
    for _ in 0..ROUNDS {
        let (done_tx, done_rx) = mpsc::channel();
        // `Sender` is not `Sync`; the callback must be.
        let done_tx = Mutex::new(done_tx);
        let mut batcher = Batcher::isolated(Arc::clone(&matrix), BatchPolicy { max_batch: 4 })
            .with_batch_done(move || {
                let _ = done_tx.lock().unwrap().send(());
            });
        batcher.start_service();
        let tickets: Vec<Ticket> = (0..6)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        let (mut resolved, mut batches) = (0, 0);
        while resolved < tickets.len() {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a batch finished without calling batch_done");
            batches += 1;
            resolved += tickets[resolved..]
                .iter()
                .take_while(|t| t.try_wait().is_some())
                .count();
            // Every batch holds at least one request, all replied to.
            assert!(resolved >= batches, "batch_done ran before its replies");
        }
        // All six are answered, so the batch count is final; the join makes
        // the last batch's call visible. One call per batch, none extra.
        let served_batches = batcher.stats().batches();
        drop(batcher);
        let calls = batches + done_rx.try_iter().count();
        assert_eq!(calls as u64, served_batches);
    }
}

#[test]
fn submit_after_close_and_bad_lengths_error() {
    let batcher = Batcher::manual(served(5), BatchPolicy::default());
    assert!(matches!(
        batcher.submit(vec![0.0; 7]),
        Err(ServeError::DimensionMismatch { .. })
    ));
    batcher.close();
    assert!(matches!(
        batcher.submit(request_x(0)),
        Err(ServeError::Closed)
    ));
    // close is idempotent.
    batcher.close();
    assert!(matches!(
        batcher.apply(request_x(0)),
        Err(ServeError::Closed)
    ));
}

#[test]
fn try_wait_polls_without_blocking() {
    let batcher = Batcher::manual(served(6), BatchPolicy::default());
    let ticket = batcher.submit(request_x(0)).unwrap();
    assert!(ticket.try_wait().is_none());
    batcher.run_once();
    assert!(matches!(ticket.try_wait(), Some(Ok(_))));
}

#[test]
fn bounded_submit_sheds_when_full() {
    let batcher = Batcher::manual(served(9), BatchPolicy::default());
    let _t0 = batcher.submit_bounded(request_x(0), 2).unwrap();
    let _t1 = batcher.submit_bounded(request_x(1), 2).unwrap();
    match batcher.submit_bounded(request_x(2), 2) {
        Err(ServeError::Overloaded { pending }) => assert_eq!(pending, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(batcher.stats().sheds(), 1);
    batcher.run_once();
    // Queue drained: admission re-opens.
    assert!(batcher.submit_bounded(request_x(3), 2).is_ok());
    assert_eq!(batcher.stats().snapshot().sheds, 1);
}

/// A block is admitted all or nothing: a refused block takes no slot, costs
/// one shed, and leaves nothing behind for the engine to run.
#[test]
fn a_block_that_does_not_fit_is_refused_whole() {
    let batcher = Batcher::manual(served(24), BatchPolicy::default());
    let _queued = batcher
        .submit_block_bounded(vec![request_x(0), request_x(1)], 4)
        .unwrap();
    assert_eq!(batcher.pending(), 2);
    let block: Vec<Vec<f64>> = (0..6).map(request_x).collect();
    match batcher.submit_block_bounded(block, 4) {
        Err(ServeError::Overloaded { pending }) => assert_eq!(pending, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(
        batcher.pending(),
        2,
        "no column of the refused block queued"
    );
    assert_eq!(batcher.stats().sheds(), 1, "one shed per refused block");
    // Two free slots take a block of two, in column order.
    let fits = batcher
        .submit_block_bounded(vec![request_x(7), request_x(8)], 4)
        .unwrap();
    assert_eq!(batcher.run_once(), 4);
    for (ticket, j) in fits.into_iter().zip([7, 8]) {
        assert_eq!(
            ticket.wait().unwrap(),
            batcher.matrix().spmv_now(&request_x(j)).unwrap()
        );
    }
    // One wrong-length column refuses the block before anything queues.
    assert!(matches!(
        batcher.submit_block_bounded(vec![request_x(0), vec![0.0; 7]], 4),
        Err(ServeError::DimensionMismatch { found: 7, .. })
    ));
    assert_eq!(batcher.pending(), 0);
}

#[test]
fn panic_in_batch_fails_tickets_and_keeps_queue_usable() {
    let batcher = Batcher::manual(served(7), BatchPolicy::default());
    batcher.inject_batch_panics(1);
    let doomed: Vec<Ticket> = (0..3)
        .map(|j| batcher.submit(request_x(j)).unwrap())
        .collect();
    assert_eq!(batcher.run_once(), 3);
    for ticket in doomed {
        assert!(matches!(ticket.wait(), Err(ServeError::BatchPanicked)));
    }
    // The queue (and its lock) survived: submit + serve still work.
    assert_eq!(batcher.pending(), 0);
    let ticket = batcher.submit(request_x(9)).unwrap();
    assert_eq!(batcher.run_once(), 1);
    assert_eq!(
        ticket.wait().unwrap(),
        batcher.matrix().spmv_now(&request_x(9)).unwrap()
    );
    let report = batcher.stats().snapshot();
    assert_eq!(report.failed_batches, 1);
    assert_eq!(report.batches, 1, "only the surviving batch counts");
    assert_eq!(report.requests, 1);
}

#[test]
fn background_service_survives_a_panicked_batch() {
    let batcher = Batcher::spawn(served(8), BatchPolicy { max_batch: 4 });
    batcher.inject_batch_panics(1);
    let doomed: Vec<Ticket> = (0..4)
        .map(|j| batcher.submit(request_x(j)).unwrap())
        .collect();
    let mut failed = 0;
    for ticket in doomed {
        match ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("no ticket may hang")
        {
            Err(ServeError::BatchPanicked) => failed += 1,
            Ok(_) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(failed > 0, "the injected panic failed at least one request");
    // The service thread is still alive and serving.
    let y = batcher.apply(request_x(5)).unwrap();
    assert_eq!(y, batcher.matrix().spmv_now(&request_x(5)).unwrap());
    assert!(batcher.stats().failed_batches() >= 1);
}

#[test]
fn concurrent_close_under_load_strands_nothing() {
    for round in 0..4 {
        let batcher = Arc::new(Batcher::spawn(
            served(10 + round),
            BatchPolicy { max_batch: 4 },
        ));
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    let mut served_ok = 0usize;
                    let mut closed = 0usize;
                    for j in 0..50 {
                        match batcher.submit(request_x(c * 50 + j)) {
                            Ok(ticket) => {
                                match ticket
                                    .wait_timeout(Duration::from_secs(10))
                                    .expect("ticket must resolve: served or failed, never hung")
                                {
                                    Ok(_) => served_ok += 1,
                                    Err(ServeError::Closed) => closed += 1,
                                    Err(e) => panic!("unexpected error {e}"),
                                }
                            }
                            Err(ServeError::Closed) => {
                                closed += 1;
                                break;
                            }
                            Err(e) => panic!("unexpected submit error {e}"),
                        }
                    }
                    (served_ok, closed)
                })
            })
            .collect();
        // Close mid-stream: submits before the flip are flushed, submits
        // after it error — nothing hangs either way.
        std::thread::sleep(Duration::from_micros(200 * round));
        batcher.close();
        let mut total = 0;
        for client in clients {
            let (served_ok, _closed) = client.join().unwrap();
            total += served_ok;
        }
        // All successfully submitted requests were served (the final
        // flush covered the stragglers); the exact split depends on the
        // race, the invariant is "no hang, no stranded ticket". Snapshot
        // only after the service thread joined, so every served request
        // has been recorded.
        let matrix = Arc::clone(batcher.matrix());
        drop(batcher);
        let report = matrix.serve_stats().snapshot();
        assert_eq!(report.requests, total);
    }
}
