//! Forwarding wrappers around the program's public traits. Each one
//! times the call it forwards and changes nothing else: every method,
//! the defaulted ones included, goes straight to the wrapped value's
//! own implementation, so the measured code path is the untraced one.

use crate::trace::Tracer;
use edgelet_core::query::{PrivacyConfig, QuerySpec, ResilienceConfig};
use edgelet_core::store::{DurableBackend, FrameRef, StorageResult};
use edgelet_core::util::Result;
use edgelet_core::wire::{Envelope, Transport, TransportError};
use edgelet_live::{LiveRun, PreparedQuery, RemoteExecutor};
use edgelet_net::WorldBuilder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counts and times every transport call.
pub struct TracedTransport<T: ?Sized> {
    inner: Arc<T>,
    tracer: Arc<Tracer>,
}

impl<T: Transport + ?Sized> TracedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<T>, tracer: Arc<Tracer>) -> Self {
        TracedTransport { inner, tracer }
    }

    fn count_submit(&self, started: Instant, accepted: u64, bytes: u64, rejected: bool) {
        let w = &self.tracer.wire;
        add(&w.submit_ns, elapsed_ns(started));
        add(&w.submit_calls, 1);
        add(&w.envelopes, accepted);
        add(&w.payload_bytes, bytes);
        add(&w.rejected, u64::from(rejected));
    }
}

impl<T: Transport + ?Sized> Transport for TracedTransport<T> {
    fn submit(&self, env: Envelope) -> std::result::Result<(), TransportError> {
        let bytes = env.payload.len() as u64;
        let started = Instant::now();
        let result = self.inner.submit(env);
        let ok = result.is_ok();
        self.count_submit(started, u64::from(ok), if ok { bytes } else { 0 }, !ok);
        result
    }

    fn drain(&self, epoch: u64, lane: usize) -> Vec<Envelope> {
        let started = Instant::now();
        let out = self.inner.drain(epoch, lane);
        let w = &self.tracer.wire;
        add(&w.drain_ns, elapsed_ns(started));
        add(&w.drain_calls, 1);
        add(&w.useful_drains, u64::from(!out.is_empty()));
        out
    }

    fn pending(&self, epoch: u64, lane: usize) -> Option<(usize, u64)> {
        add(&self.tracer.wire.pending_calls, 1);
        self.inner.pending(epoch, lane)
    }

    fn submit_batch(&self, batch: &mut Vec<Envelope>) -> std::result::Result<(), TransportError> {
        let total = |b: &Vec<Envelope>| b.iter().map(|e| e.payload.len() as u64).sum::<u64>();
        let (count, bytes) = (batch.len() as u64, total(batch));
        let started = Instant::now();
        let result = self.inner.submit_batch(batch);
        let accepted = count - batch.len() as u64;
        let accepted_bytes = bytes - total(batch);
        self.count_submit(started, accepted, accepted_bytes, result.is_err());
        result
    }
}

/// Spans every durable-backend call (`store.*`).
pub struct TracedBackend<B: ?Sized> {
    inner: Arc<B>,
    tracer: Arc<Tracer>,
}

impl<B: DurableBackend + ?Sized> TracedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<B>, tracer: Arc<Tracer>) -> Self {
        TracedBackend { inner, tracer }
    }

    fn appended(&self, records: u64, bytes: u64) {
        add(&self.tracer.calls.append_records, records);
        add(&self.tracer.calls.append_bytes, bytes);
    }
}

impl<B: DurableBackend + ?Sized> DurableBackend for TracedBackend<B> {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let _s = self.tracer.span("store.append");
        self.appended(1, bytes.len() as u64);
        self.inner.append(bytes)
    }
    fn append_batch(&self, frames: &[FrameRef<'_>]) -> StorageResult<()> {
        let _s = self.tracer.span("store.append");
        let bytes = frames.iter().map(|f| f.len() as u64).sum();
        self.appended(frames.len() as u64, bytes);
        self.inner.append_batch(frames)
    }
    fn sync(&self) -> StorageResult<()> {
        let _s = self.tracer.span("store.sync");
        self.inner.sync()
    }
    fn read_wal_segments(&self) -> StorageResult<Vec<Vec<u8>>> {
        let _s = self.tracer.span("store.read");
        self.inner.read_wal_segments()
    }
    fn read_wal(&self) -> StorageResult<Vec<u8>> {
        let _s = self.tracer.span("store.read");
        self.inner.read_wal()
    }
    fn segment_sizes(&self) -> StorageResult<Vec<u64>> {
        let _s = self.tracer.span("store.read");
        self.inner.segment_sizes()
    }
    fn truncate_wal(&self, len: u64) -> StorageResult<()> {
        let _s = self.tracer.span("store.truncate");
        self.inner.truncate_wal(len)
    }
    fn rotate_wal(&self) -> StorageResult<()> {
        let _s = self.tracer.span("store.rotate");
        self.inner.rotate_wal()
    }
    fn drop_sealed_segments(&self) -> StorageResult<()> {
        let _s = self.tracer.span("store.drop_sealed");
        self.inner.drop_sealed_segments()
    }
    fn write_checkpoint(&self, bytes: &[u8]) -> StorageResult<()> {
        let _s = self.tracer.span("store.checkpoint");
        self.inner.write_checkpoint(bytes)
    }
    fn read_checkpoint(&self) -> StorageResult<Option<Vec<u8>>> {
        let _s = self.tracer.span("store.read");
        self.inner.read_checkpoint()
    }
    fn reset_wal(&self) -> StorageResult<()> {
        let _s = self.tracer.span("store.reset");
        self.inner.reset_wal()
    }
}

/// Spans `RemoteExecutor::try_run` (`net.try_run`) and counts how often
/// the remote run was used.
pub struct TracedRemote<R: ?Sized> {
    inner: Arc<R>,
    tracer: Arc<Tracer>,
}

impl<R: RemoteExecutor + ?Sized> TracedRemote<R> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<R>, tracer: Arc<Tracer>) -> Self {
        TracedRemote { inner, tracer }
    }
}

impl<R: RemoteExecutor + ?Sized> RemoteExecutor for TracedRemote<R> {
    fn try_run(
        &self,
        epoch: u64,
        spec: &QuerySpec,
        privacy: &PrivacyConfig,
        resilience: &ResilienceConfig,
        abort: &AtomicBool,
    ) -> Option<Result<LiveRun>> {
        let _s = self.tracer.span("net.try_run");
        let out = self.inner.try_run(epoch, spec, privacy, resilience, abort);
        add(&self.tracer.calls.try_runs, 1);
        add(
            &self.tracer.calls.remote_ok,
            u64::from(matches!(out, Some(Ok(_)))),
        );
        out
    }
}

/// Spans `WorldBuilder::build` (`net.world_build`) on the daemon and on
/// every worker.
pub struct TracedBuilder<W: ?Sized> {
    inner: Arc<W>,
    tracer: Arc<Tracer>,
}

impl<W: WorldBuilder + ?Sized> TracedBuilder<W> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<W>, tracer: Arc<Tracer>) -> Self {
        TracedBuilder { inner, tracer }
    }
}

impl<W: WorldBuilder + ?Sized> WorldBuilder for TracedBuilder<W> {
    fn build(&self, spec: &[u8], epoch: u64, workers: usize) -> Result<PreparedQuery> {
        let _s = self.tracer.span("net.world_build");
        add(&self.tracer.calls.world_builds, 1);
        self.inner.build(spec, epoch, workers)
    }
}
