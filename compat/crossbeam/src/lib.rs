//! Offline stand-in for `crossbeam`.
//!
//! Implements the `crossbeam::channel` surface this workspace uses: MPMC
//! channels with cloneable senders *and* receivers, built on
//! `Mutex<VecDeque>` + two condvars. Disconnect semantics mirror crossbeam:
//! `recv` drains remaining messages after all senders drop and only then
//! reports disconnection; `send` fails once every receiver is gone.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `None` for unbounded channels.
        cap: Option<usize>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message like crossbeam's.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently has no messages.
        Empty,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "channel is empty"),
                TryRecvError::Disconnected => write!(f, "channel is disconnected"),
            }
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the timeout passed.
        Timeout,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => write!(f, "channel is disconnected"),
            }
        }
    }

    /// Sending half; cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC) — clones compete for messages.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a bounded channel: `send` blocks while `cap` messages are
    /// queued. `cap` must be at least 1 (the shim does not implement
    /// crossbeam's zero-capacity rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(
            cap > 0,
            "crossbeam shim: zero-capacity channels unsupported"
        );
        new_channel(Some(cap))
    }

    /// Creates an unbounded channel: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while the channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message back if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.shared.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.shared.not_full.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            let last = inner.senders == 0;
            drop(inner);
            if last {
                // Wake all receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is empty *and* every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Blocks on the channel's condvar (no polling) until a message,
        /// the disconnect, or `deadline` (`None` waits forever).
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                inner = match deadline {
                    None => self.shared.not_empty.wait(inner).unwrap(),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        self.shared.not_empty.wait_timeout(inner, left).unwrap().0
                    }
                };
            }
        }

        /// Receives without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when no message is queued,
        /// [`TryRecvError::Disconnected`] when additionally every sender is
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(msg) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receives a message, blocking for at most `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when no message arrived in time,
        /// [`RecvTimeoutError::Disconnected`] once the channel is empty and
        /// every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + timeout))
        }

        /// Whether no message is queued right now.
        pub fn is_empty(&self) -> bool {
            self.shared.inner.lock().unwrap().queue.is_empty()
        }

        /// Blocking iterator over messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            let last = inner.receivers == 0;
            drop(inner);
            if last {
                // Wake all senders so blocked sends observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, RecvTimeoutError, TryRecvError};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn messages_arrive_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(rx.is_empty());
        tx.send(9).unwrap();
        assert!(!rx.is_empty());
    }

    #[test]
    fn recv_drains_before_reporting_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u32>(1);
        let rx2 = rx.clone();
        drop(rx);
        drop(rx2);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires_delivers_and_reports_disconnect() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        // A send from another thread wakes the blocked receiver well before
        // its deadline: the wait is on the condvar, not a poll.
        let sender = thread::spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
        sender.join().unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cloned_receivers_compete_without_duplication() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let n = 1000u64;
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        let mut local = Vec::new();
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send(i).unwrap();
            }
        });
        while let Ok(v) = rx.recv() {
            local.push(v);
        }
        producer.join().unwrap();
        let mut all = consumer.join().unwrap();
        all.extend(local);
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}
