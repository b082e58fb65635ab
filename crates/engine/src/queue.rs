//! A shard's command queue: a bounded std channel plus the depth count
//! std's channels do not keep.
//!
//! Every send to a shard goes through [`QueueTx`] and the worker
//! receives through [`QueueRx`], so the count has one owner. A send
//! counts its command before queueing it and the worker uncounts it on
//! receipt, so the depth never underflows; a producer blocked on a full
//! queue is counted as queued. The depth reads 0 once a flush returns:
//! the worker received everything queued ahead of the flush before it
//! answered.
//!
//! The count is a statistic and publishes no data, so it is `Relaxed`.
//! It cannot underflow all the same: a command's increment comes before
//! its send, the channel orders the send before the receive, and the
//! decrement comes after the receive, so every decrement follows its
//! increment in the counter's modification order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender, TrySendError};
use std::sync::Arc;

/// The producer side of a shard queue, shared by every engine caller.
pub(crate) struct QueueTx<T> {
    tx: SyncSender<T>,
    depth: Arc<AtomicUsize>,
}

/// The shard worker's side of its queue.
pub(crate) struct QueueRx<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicUsize>,
}

/// A queue holding at most `capacity` commands.
pub(crate) fn queue<T>(capacity: usize) -> (QueueTx<T>, QueueRx<T>) {
    let (tx, rx) = sync_channel(capacity);
    let depth = Arc::new(AtomicUsize::new(0));
    let tx = QueueTx {
        tx,
        depth: Arc::clone(&depth),
    };
    (tx, QueueRx { rx, depth })
}

impl<T> QueueTx<T> {
    /// Queue `cmd`, blocking while the queue is full. Fails only when
    /// the worker is gone, handing the command back uncounted.
    pub(crate) fn send(&self, cmd: T) -> Result<(), SendError<T>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.send(cmd).map_err(|e| self.uncount(e))
    }

    /// Queue `cmd` only if there is room now; a refused command is not
    /// counted.
    pub(crate) fn try_send(&self, cmd: T) -> Result<(), TrySendError<T>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.try_send(cmd).map_err(|e| self.uncount(e))
    }

    /// Take back the count of a command that was not queued.
    fn uncount<E>(&self, refused: E) -> E {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        refused
    }

    /// Commands sent and not yet received by the worker.
    pub(crate) fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

impl<T> QueueRx<T> {
    /// The next command, or `None` once every sender is gone.
    pub(crate) fn recv(&self) -> Option<T> {
        let cmd = self.rx.recv().ok()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_counts_sends_drops_on_receives_and_ignores_failed_sends() {
        let (tx, rx) = queue::<u32>(2);
        assert_eq!(tx.len(), 0);
        tx.send(1).expect("room");
        tx.try_send(2).expect("room");
        assert_eq!(tx.len(), 2);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(tx.len(), 2, "a refused command is not queued");
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(tx.len(), 0);

        tx.send(4).expect("room");
        drop(rx);
        assert!(tx.send(5).is_err());
        assert!(matches!(tx.try_send(6), Err(TrySendError::Disconnected(6))));
        assert_eq!(tx.len(), 1, "sends to a dropped receiver leave the depth");
    }
}
