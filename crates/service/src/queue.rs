//! Frame-request admission control.
//!
//! Synthesis requests that miss the cache pass through a [`FrameQueue`]
//! before any work is done. The queue gives the server three overload
//! properties the paper's interactive setting needs:
//!
//! * **bounded depth** — at most `watermark` jobs wait at any moment, so
//!   memory use is flat no matter how hard clients push;
//! * **shed, don't stall** — a submission beyond the watermark (or beyond a
//!   single session's fair share) is rejected immediately with
//!   [`AdmissionError::Busy`], which the front end turns into `503 Busy`;
//!   the client can retry, and latency of admitted work stays predictable;
//! * **per-session fairness** — workers drain sessions round-robin, so one
//!   chatty session cannot starve the others however many requests it has
//!   queued.

use softpipe::sync::{lock_recover, wait_timeout_recover};
use spotnoise::telemetry::Histogram;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Admission-control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum jobs waiting in the queue; submissions beyond it are shed.
    pub watermark: usize,
    /// Maximum jobs one session may have waiting; submissions beyond it are
    /// shed even when the queue has global room.
    pub per_session: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            watermark: 64,
            per_session: 16,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at its watermark — the server is saturated.
    Busy,
    /// This session already has its fair share of jobs waiting.
    SessionBusy,
    /// The queue has been closed for shutdown.
    Closed,
}

/// Counter snapshot for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs currently waiting.
    pub depth: usize,
    /// Highest depth ever observed.
    pub peak_depth: usize,
    /// Jobs admitted.
    pub accepted: u64,
    /// Submissions shed at the global watermark.
    pub shed_busy: u64,
    /// Submissions shed at the per-session cap.
    pub shed_session: u64,
    /// Jobs fully executed (reported by workers).
    pub completed: u64,
}

struct Inner<T> {
    /// Waiting jobs, one FIFO per session, each stamped with its admission
    /// instant so `pop` can record the queue wait.
    pending: HashMap<u64, VecDeque<(Instant, T)>>,
    /// Sessions with waiting jobs, in round-robin service order (each id
    /// appears at most once).
    rotation: VecDeque<u64>,
    depth: usize,
    peak_depth: usize,
    accepted: u64,
    shed_busy: u64,
    shed_session: u64,
    completed: u64,
    closed: bool,
    /// Optional queue-wait histogram: admission→pop latency in microseconds.
    wait: Option<Arc<Histogram>>,
}

/// Re-derives the queue's redundant state from the ground truth (the
/// per-session FIFOs) after a panic poisoned the lock: rotation order and
/// the cached depth are both recomputable, so a poisoned queue heals to a
/// consistent (if arbitrarily re-ordered) state instead of taking the
/// server down. Monotonic counters are left as they were — a panic
/// mid-update can at worst lose the single increment that was in flight.
fn revalidate_inner<T>(inner: &mut Inner<T>) {
    inner.pending.retain(|_, fifo| !fifo.is_empty());
    inner.rotation = inner.pending.keys().copied().collect();
    inner.depth = inner.pending.values().map(VecDeque::len).sum();
    inner.peak_depth = inner.peak_depth.max(inner.depth);
}

/// How long a popped job waited in line: from its admission instant to the
/// moment [`FrameQueue::pop`] handed it out. This one measurement is what
/// the wait histogram records, so a worker's trace span of the wait (same
/// start, same duration) agrees with it.
#[derive(Debug, Clone, Copy)]
pub struct QueueWait {
    /// When the job was admitted.
    pub since: Instant,
    /// Admission to pickup, including any injected `"queue"` delay.
    pub waited: Duration,
}

/// A bounded, session-fair frame-request queue.
pub struct FrameQueue<T> {
    config: AdmissionConfig,
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> FrameQueue<T> {
    /// Creates an empty queue with the given admission parameters.
    pub fn new(config: AdmissionConfig) -> Self {
        FrameQueue {
            config,
            inner: Mutex::new(Inner {
                pending: HashMap::new(),
                rotation: VecDeque::new(),
                depth: 0,
                peak_depth: 0,
                accepted: 0,
                shed_busy: 0,
                shed_session: 0,
                completed: 0,
                closed: false,
                wait: None,
            }),
            available: Condvar::new(),
        }
    }

    /// Locks the queue state, recovering from poison by re-deriving the
    /// redundant bookkeeping from the per-session FIFOs.
    fn locked(&self) -> MutexGuard<'_, Inner<T>> {
        lock_recover(&self.inner, revalidate_inner)
    }

    /// Installs a histogram recording each job's queue wait (admission to
    /// [`pop`](Self::pop)) in microseconds.
    pub fn set_wait_histogram(&self, histogram: Arc<Histogram>) {
        self.locked().wait = Some(histogram);
    }

    /// The admission parameters.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Submits a job for `session`, shedding beyond the watermark or the
    /// session's fair share.
    pub fn submit(&self, session: u64, job: T) -> Result<(), AdmissionError> {
        let mut inner = self.locked();
        if inner.closed {
            return Err(AdmissionError::Closed);
        }
        if inner.depth >= self.config.watermark {
            inner.shed_busy += 1;
            return Err(AdmissionError::Busy);
        }
        // Check the cap before materializing the session's FIFO: a shed
        // submission must leave no empty deque behind (pop only cleans up
        // entries it drains, so leaked empties would accumulate forever
        // under a permanently-shedding configuration).
        let queued = inner.pending.get(&session).map_or(0, VecDeque::len);
        if queued >= self.config.per_session {
            inner.shed_session += 1;
            return Err(AdmissionError::SessionBusy);
        }
        let fifo = inner.pending.entry(session).or_default();
        let newly_pending = fifo.is_empty();
        fifo.push_back((Instant::now(), job));
        if newly_pending {
            inner.rotation.push_back(session);
        }
        inner.depth += 1;
        inner.peak_depth = inner.peak_depth.max(inner.depth);
        inner.accepted += 1;
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and returns it with its session id
    /// and its [`QueueWait`], or `None` once the queue is closed and drained
    /// (worker exit signal).
    pub fn pop(&self) -> Option<(u64, T, QueueWait)> {
        let mut inner = self.locked();
        loop {
            if let Some(session) = inner.rotation.pop_front() {
                let fifo = inner
                    .pending
                    .get_mut(&session)
                    .expect("rotation entry without fifo");
                let (queued_at, job) = fifo.pop_front().expect("empty fifo in rotation");
                if fifo.is_empty() {
                    inner.pending.remove(&session);
                } else {
                    // Round-robin: this session goes to the back of the
                    // service order while it still has work.
                    inner.rotation.push_back(session);
                }
                inner.depth -= 1;
                let wait = inner.wait.clone();
                drop(inner);
                // The queue fault site, deliberately outside the lock (an
                // injected panic must not poison it) and before the wait is
                // recorded (an injected delay shows up as queue pressure,
                // which is what the chaos suite steers the ladder with).
                softpipe::fault::fire("queue");
                let waited = QueueWait {
                    since: queued_at,
                    waited: queued_at.elapsed(),
                };
                if let Some(wait) = wait {
                    wait.record_duration(waited.waited);
                }
                return Some((session, job, waited));
            }
            if inner.closed {
                return None;
            }
            // A bounded wait instead of an open-ended one: recovery from a
            // poisoned condvar re-checks the queue at worst one interval
            // later, and close() still short-circuits via notify_all.
            let (guard, _timed_out) = wait_timeout_recover(
                &self.available,
                inner,
                &self.inner,
                Duration::from_millis(100),
                revalidate_inner,
            );
            inner = guard;
        }
    }

    /// Records a fully executed job.
    pub fn complete(&self) {
        self.locked().completed += 1;
    }

    /// Closes the queue: further submissions fail with
    /// [`AdmissionError::Closed`]; workers drain what is left and then see
    /// `None` from [`pop`](Self::pop).
    pub fn close(&self) {
        self.locked().closed = true;
        self.available.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        let inner = self.locked();
        QueueStats {
            depth: inner.depth,
            peak_depth: inner.peak_depth,
            accepted: inner.accepted,
            shed_busy: inner.shed_busy,
            shed_session: inner.shed_session,
            completed: inner.completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queue(watermark: usize, per_session: usize) -> FrameQueue<u64> {
        FrameQueue::new(AdmissionConfig {
            watermark,
            per_session,
        })
    }

    #[test]
    fn sheds_beyond_watermark_without_growing() {
        let q = queue(3, 8);
        for i in 0..3 {
            q.submit(1, i).unwrap();
        }
        assert_eq!(q.submit(1, 99), Err(AdmissionError::Busy));
        assert_eq!(q.submit(2, 99), Err(AdmissionError::Busy));
        let s = q.stats();
        assert_eq!(s.depth, 3);
        assert_eq!(s.peak_depth, 3);
        assert_eq!(s.shed_busy, 2);
        assert_eq!(s.accepted, 3);
        // Draining reopens admission.
        q.pop().unwrap();
        q.submit(2, 7).unwrap();
        assert_eq!(q.stats().depth, 3);
        assert_eq!(q.stats().peak_depth, 3, "depth never exceeded watermark");
    }

    #[test]
    fn per_session_cap_protects_other_sessions() {
        let q = queue(16, 2);
        q.submit(1, 0).unwrap();
        q.submit(1, 1).unwrap();
        assert_eq!(q.submit(1, 2), Err(AdmissionError::SessionBusy));
        // Another session still has room.
        q.submit(2, 0).unwrap();
        assert_eq!(q.stats().shed_session, 1);
    }

    #[test]
    fn shed_submissions_leave_no_empty_fifos_behind() {
        // per_session = 0 sheds everything; the pending map must not grow.
        let q = queue(16, 0);
        for session in 0..100 {
            assert_eq!(q.submit(session, 0), Err(AdmissionError::SessionBusy));
        }
        assert_eq!(q.inner.lock().unwrap().pending.len(), 0);
        assert_eq!(q.stats().depth, 0);
        assert_eq!(q.stats().shed_session, 100);
    }

    #[test]
    fn pop_records_queue_wait_in_the_installed_histogram() {
        let q = queue(16, 8);
        let wait = Arc::new(Histogram::new());
        q.set_wait_histogram(Arc::clone(&wait));
        q.submit(1, 0).unwrap();
        q.submit(2, 1).unwrap();
        let waits = [q.pop().unwrap().2, q.pop().unwrap().2];
        let snap = wait.snapshot();
        assert_eq!(snap.count, 2);
        // The histogram holds exactly the waits pop handed out.
        let micros: u64 = waits.iter().map(|w| w.waited.as_micros() as u64).sum();
        assert_eq!(snap.sum, micros);
        assert!(waits[0].since <= waits[1].since);
    }

    #[test]
    fn pop_serves_sessions_round_robin() {
        let q = queue(16, 8);
        // Session 1 floods first; session 2 arrives later with one job.
        for i in 0..4 {
            q.submit(1, 10 + i).unwrap();
        }
        q.submit(2, 20).unwrap();
        q.submit(3, 30).unwrap();
        let order: Vec<u64> = (0..6).map(|_| q.pop().unwrap().0).collect();
        // After the first pop, the rotation interleaves the sessions instead
        // of finishing session 1's backlog first.
        assert_eq!(order, vec![1, 2, 3, 1, 1, 1]);
        // FIFO within a session.
        let q = queue(16, 8);
        q.submit(1, 0).unwrap();
        q.submit(1, 1).unwrap();
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn close_wakes_blocked_workers_and_drains() {
        let q = Arc::new(queue(16, 8));
        q.submit(1, 5).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some((_, job, _)) = q.pop() {
                    seen.push(job);
                    q.complete();
                }
                seen
            })
        };
        // Give the worker a moment to drain and block.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(q.submit(1, 9), Err(AdmissionError::Closed));
        let seen = worker.join().unwrap();
        assert_eq!(seen, vec![5]);
        assert_eq!(q.stats().completed, 1);
    }
}
