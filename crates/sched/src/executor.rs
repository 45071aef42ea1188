//! The parallel sharded session executor.
//!
//! The serial runtime drains sessions one thread, one step at a time —
//! throughput is pinned to a single core no matter how many sessions are
//! open. This module scales the drain with the hardware while keeping
//! the repository's headline guarantee intact:
//!
//! * **Sharding** — sessions are partitioned by [`SessionId::shard_of`]
//!   onto worker shards; each shard drains *its* sessions round-robin on
//!   its own scoped thread (`std::thread::scope`, no new dependencies).
//! * **Determinism** — a session owns all of its mutable state
//!   (scheduler, frozen environment handle, stream cursor, budget);
//!   workers share only the `Arc`-held read-only context (platform,
//!   candidate family, policy registry). A session's step sequence is
//!   therefore independent of which thread runs it or what its
//!   neighbours do, so parallel episodes are **bit-identical** to the
//!   serial drain's (`tests/parallel_executor.rs`).
//! * **Event ordering** — workers fan sink events into one mpsc channel,
//!   drained on the calling thread. The channel preserves per-sender
//!   FIFO order and each session lives on exactly one worker, so every
//!   consumer still sees each session's `InputProcessed` events in index
//!   order followed by its `SessionClosed` — the same per-session stream
//!   the serial drain delivers. Cross-session interleaving is
//!   scheduling-dependent, as it (implicitly) always was.
//!
//! Two surfaces build on this:
//!
//! * [`Runtime::drain_parallel`](crate::runtime::Runtime::drain_parallel)
//!   — one-shot: partition the runtime's open sessions, drain, return
//!   episodes ascending by id.
//! * [`ShardedRuntime`] — long-lived: `workers` single-threaded shard
//!   runtimes with disjoint stride-allocated id spaces
//!   (`RuntimeBuilder::session_ids`), serving `open`/`submit`/`close`
//!   routed by id and draining all shards in parallel on demand.

use crate::env::EpisodeEnv;
use crate::harness::Episode;
use crate::registry::PolicyRegistry;
use crate::runtime::{
    EpisodeEvent, EventSink, Runtime, RuntimeBuilder, RuntimeError, Session, SessionOptions,
    SessionSnapshot, SessionSpec,
};
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_workload::{InputRecord, InputStream, SessionId};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Drains pre-partitioned shards to completion, one scoped worker thread
/// per shard, and returns the episodes ascending by session id.
///
/// Sink events are forwarded through an mpsc channel and emitted on the
/// calling thread (the sinks are `&mut` — they never cross threads), in
/// per-session order. When no sink is installed the workers skip the
/// per-record clone entirely, keeping the drain hot path allocation-lean.
pub(crate) fn drain_shards(
    shards: Vec<Vec<(SessionId, Session)>>,
    family: &ModelFamily,
    sinks: &mut [Box<dyn EventSink>],
    telemetry: crate::telemetry::TelemetryConfig,
) -> Result<Vec<(SessionId, Episode)>, RuntimeError> {
    let (tx, rx) = mpsc::channel::<EpisodeEvent>();
    let emit = !sinks.is_empty();
    let mut episodes: Vec<(SessionId, Episode)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .filter(|shard| !shard.is_empty())
            .map(|shard| {
                let tx = emit.then(|| tx.clone());
                scope.spawn(move || drain_shard(shard, family, tx, telemetry))
            })
            .collect();
        // The workers hold the only remaining senders: once they finish,
        // the channel disconnects and the pump below terminates.
        drop(tx);
        for event in rx.iter() {
            for sink in sinks.iter_mut() {
                sink.emit(&event);
            }
        }
        handles
            .into_iter()
            // lint:allow(no-panic): join() only errs if the worker panicked; re-raising that panic is the correct propagation
            .map(|h| h.join().expect("executor worker panicked"))
            .collect::<Result<Vec<_>, RuntimeError>>()
            .map(|per_shard| per_shard.into_iter().flatten().collect())
    })?;
    episodes.sort_by_key(|(id, _)| *id);
    Ok(episodes)
}

/// One worker: round-robin over the shard's sessions (each live session
/// advances one input per round — the exact per-session step sequence of
/// the serial drain), then fold and close in id order. A step error
/// (scheduler bug) aborts the shard; the drain propagates the first one.
fn drain_shard(
    mut shard: Vec<(SessionId, Session)>,
    family: &ModelFamily,
    tx: Option<mpsc::Sender<EpisodeEvent>>,
    telemetry: crate::telemetry::TelemetryConfig,
) -> Result<Vec<(SessionId, Episode)>, RuntimeError> {
    shard.sort_by_key(|(id, _)| *id);
    let mut live: Vec<usize> = (0..shard.len()).collect();
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for k in live {
            let (id, session) = &mut shard[k];
            if let Some(record) = session.step(family)? {
                if let Some(tx) = &tx {
                    // Cloning first releases the step borrow so the
                    // scheduler's trace is readable; both events then
                    // ship in the serial drain's order — InputProcessed,
                    // then its Telemetry.
                    let record = record.clone();
                    let event = Runtime::decision_telemetry(
                        telemetry,
                        *id,
                        &record,
                        session.scheduler.as_ref(),
                    );
                    let _ = tx.send(EpisodeEvent::InputProcessed {
                        session: *id,
                        record,
                    });
                    if let Some(event) = event {
                        let _ = tx.send(event);
                    }
                }
                still.push(k);
            }
        }
        live = still;
    }
    Ok(shard
        .into_iter()
        .map(|(id, session)| {
            let scheme = session.scheme.clone();
            let episode = session.finish();
            if let Some(tx) = &tx {
                let _ = tx.send(EpisodeEvent::SessionClosed {
                    session: id,
                    scheme,
                    summary: episode.summary.clone(),
                });
            }
            (id, episode)
        })
        .collect())
}

/// A long-lived multi-worker serving runtime: `workers` single-threaded
/// shard [`Runtime`]s sharing one `Arc`-held read-only context (platform,
/// candidate family, policy registry), with session ids stride-allocated
/// so `id.shard_of(workers)` routes every request to its owner.
///
/// Serial operations (`session(..).open()`, `submit`, `close`, …) behave
/// exactly like their [`Runtime`] counterparts on the owning shard;
/// [`ShardedRuntime::drain`] drains *all* shards in parallel, one thread
/// per shard. Episodes and sink event streams are bit-identical
/// per-session to a single serial runtime serving the same specs
/// (`tests/parallel_executor.rs`).
///
/// Build one with [`RuntimeBuilder::build_sharded`]:
///
/// ```
/// use alert_sched::runtime::Runtime;
///
/// let sharded = Runtime::builder().build_sharded(4).expect("builds");
/// assert_eq!(sharded.workers(), 4);
/// ```
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
    sinks: Vec<Box<dyn EventSink>>,
    rx: mpsc::Receiver<EpisodeEvent>,
    /// Round-robin cursor for placing newly opened sessions.
    next_shard: usize,
}

impl ShardedRuntime {
    /// Builds the sharded runtime from a configured [`RuntimeBuilder`]
    /// (the implementation behind [`RuntimeBuilder::build_sharded`]).
    ///
    /// The builder's sinks become the sharded runtime's sinks; each shard
    /// internally forwards its events into a shared channel whose
    /// receiver pumps them to those sinks in per-session order.
    pub(crate) fn from_builder(
        mut builder: RuntimeBuilder,
        workers: usize,
    ) -> Result<Self, RuntimeError> {
        let workers = workers.max(1);
        if builder.id_start != 0 || builder.id_stride != 1 {
            return Err(RuntimeError::InvalidSpec(
                "build_sharded owns the session-id space (shard k of N allocates k, k + N, …); \
                 it cannot be combined with RuntimeBuilder::session_ids"
                    .into(),
            ));
        }
        let registry = Arc::new(
            builder
                .registry
                .take()
                .unwrap_or_else(PolicyRegistry::builtin),
        );
        let platform = Arc::new(Platform::by_id(builder.spec.platform));
        let family = Arc::new(builder.spec.family.family());
        let sinks = std::mem::take(&mut builder.sinks);
        let (tx, rx) = mpsc::channel::<EpisodeEvent>();
        let shards = (0..workers)
            .map(|k| {
                // Shards forward events only when somebody listens — with
                // no outer sinks, the hot path skips the per-record clone
                // and nothing accumulates in the channel.
                let shard_sinks: Vec<Box<dyn EventSink>> = if sinks.is_empty() {
                    Vec::new()
                } else {
                    vec![Box::new(tx.clone()) as Box<dyn EventSink>]
                };
                let shard_builder = RuntimeBuilder {
                    spec: builder.spec.clone(),
                    registry: None,
                    sinks: shard_sinks,
                    telemetry: builder.telemetry,
                    id_start: k as u64,
                    id_stride: workers as u64,
                };
                shard_builder.build_shared(registry.clone(), platform.clone(), family.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The shards hold the only senders: if every shard is dropped the
        // channel disconnects, which the pump treats as "nothing left".
        drop(tx);
        Ok(ShardedRuntime {
            shards,
            sinks,
            rx,
            next_shard: 0,
        })
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The platform sessions run on (identical across shards — the
    /// serving admission layer builds its belief table from it).
    pub fn platform(&self) -> &alert_platform::Platform {
        // lint:allow(no-panic): from_builder clamps workers to >= 1, so shard 0 exists
        self.shards[0].platform()
    }

    /// The candidate family sessions schedule over (identical across
    /// shards).
    pub fn family(&self) -> &alert_models::ModelFamily {
        // lint:allow(no-panic): from_builder clamps workers to >= 1, so shard 0 exists
        self.shards[0].family()
    }

    /// The shard owning `id`.
    pub fn shard_of(&self, id: SessionId) -> usize {
        id.shard_of(self.shards.len())
    }

    /// Total open sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(Runtime::session_count).sum()
    }

    /// Open sessions per shard, in shard order (the churn-at-scale bench
    /// asserts round-robin placement keeps the shards balanced).
    pub fn shard_session_counts(&self) -> Vec<usize> {
        self.shards.iter().map(Runtime::session_count).collect()
    }

    /// Ids of all open sessions, ascending.
    pub fn open_sessions(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|rt| rt.open_sessions())
            .collect();
        ids.sort();
        ids
    }

    /// Forwards buffered shard events to the sinks (non-blocking). Called
    /// after every serial operation; [`ShardedRuntime::drain`] pumps
    /// continuously while the workers run.
    fn pump_events(&mut self) {
        if self.sinks.is_empty() {
            return;
        }
        while let Ok(event) = self.rx.try_recv() {
            for sink in &mut self.sinks {
                sink.emit(&event);
            }
        }
    }

    /// Starts a [`SessionOptions`] builder opening on this sharded
    /// runtime — see [`Runtime::session`]. Placement is round-robin
    /// unless [`SessionOptions::on_shard`] pins a shard. With `workers`
    /// shards and no intervening closes, round-robin ids come out dense
    /// and ascending (0, 1, 2, …) exactly like a serial runtime's.
    pub fn session(&mut self, spec: SessionSpec) -> SessionOptions<'_> {
        SessionOptions::new(crate::runtime::HostRef::Sharded(self), spec)
    }

    /// The open path behind [`ShardedRuntime::session`]: routes to the
    /// pinned shard, or the round-robin cursor (which pinning does not
    /// advance).
    pub(crate) fn open_parts_on(
        &mut self,
        shard: Option<usize>,
        spec: SessionSpec,
        external: Option<(InputStream, Arc<EpisodeEnv>)>,
        scheduler: Option<Box<dyn crate::scheduler::Scheduler>>,
    ) -> Result<SessionId, RuntimeError> {
        let pinned = shard.is_some();
        let shard = match shard {
            Some(k) if k >= self.shards.len() => {
                return Err(RuntimeError::InvalidSpec(format!(
                    "no shard {k}: this runtime has {} shards",
                    self.shards.len()
                )));
            }
            Some(k) => k,
            None => self.next_shard,
        };
        let id = self.shards[shard].open_parts(spec, external, scheduler)?;
        if !pinned {
            self.next_shard = (self.next_shard + 1) % self.shards.len();
        }
        debug_assert_eq!(self.shard_of(id), shard);
        self.pump_events();
        Ok(id)
    }

    /// Advances `id` by exactly one input — see [`Runtime::submit`].
    pub fn submit(&mut self, id: SessionId) -> Result<Option<InputRecord>, RuntimeError> {
        let shard = self.shard_of(id);
        let record = self.shards[shard].submit(id)?;
        self.pump_events();
        Ok(record)
    }

    /// Drives `id` to the end of its stream — see
    /// [`Runtime::run_to_completion`].
    pub fn run_to_completion(&mut self, id: SessionId) -> Result<usize, RuntimeError> {
        let shard = self.shard_of(id);
        let n = self.shards[shard].run_to_completion(id)?;
        self.pump_events();
        Ok(n)
    }

    /// `true` once the session has processed its whole stream.
    pub fn is_finished(&self, id: SessionId) -> Result<bool, RuntimeError> {
        self.shards[self.shard_of(id)].is_finished(id)
    }

    /// Inputs processed so far.
    pub fn progress(&self, id: SessionId) -> Result<usize, RuntimeError> {
        self.shards[self.shard_of(id)].progress(id)
    }

    /// The scheme name driving a session.
    pub fn scheme(&self, id: SessionId) -> Result<&str, RuntimeError> {
        self.shards[self.shard_of(id)].scheme(id)
    }

    /// Closes a session, returning its [`Episode`] — see
    /// [`Runtime::close`].
    pub fn close(&mut self, id: SessionId) -> Result<Episode, RuntimeError> {
        let shard = self.shard_of(id);
        let episode = self.shards[shard].close(id)?;
        self.pump_events();
        Ok(episode)
    }

    /// Checkpoints a session — see [`Runtime::snapshot_session`].
    pub fn snapshot_session(&self, id: SessionId) -> Result<SessionSnapshot, RuntimeError> {
        self.shards[self.shard_of(id)].snapshot_session(id)
    }

    /// Restores a checkpointed session onto the next shard, round-robin —
    /// see [`Runtime::restore_session`].
    pub fn restore_session(&mut self, snap: &SessionSnapshot) -> Result<SessionId, RuntimeError> {
        let shard = self.next_shard;
        let id = self.shards[shard].restore_session(snap)?;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        self.pump_events();
        Ok(id)
    }

    /// Drains every shard to completion in parallel — one scoped thread
    /// per non-empty shard, the calling thread pumping sink events while
    /// the workers run — and returns all episodes ascending by id.
    ///
    /// Per-session, episodes and event streams are bit-identical to a
    /// serial [`Runtime::drain_round_robin`] over the same sessions.
    pub fn drain(&mut self) -> Result<Vec<(SessionId, Episode)>, RuntimeError> {
        let ShardedRuntime {
            shards, sinks, rx, ..
        } = self;
        let mut episodes: Vec<(SessionId, Episode)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .filter(|rt| rt.session_count() > 0)
                .map(|rt| scope.spawn(move || rt.drain_round_robin()))
                .collect();
            if !sinks.is_empty() {
                // Pump until every worker is done, then flush the tail.
                while handles.iter().any(|h| !h.is_finished()) {
                    while let Ok(event) = rx.recv_timeout(Duration::from_millis(1)) {
                        for sink in sinks.iter_mut() {
                            sink.emit(&event);
                        }
                    }
                }
                while let Ok(event) = rx.try_recv() {
                    for sink in sinks.iter_mut() {
                        sink.emit(&event);
                    }
                }
            }
            handles
                .into_iter()
                // lint:allow(no-panic): join() only errs if the worker panicked; re-raising that panic is the correct propagation
                .map(|h| h.join().expect("shard drain panicked"))
                .collect::<Result<Vec<_>, RuntimeError>>()
                .map(|per_shard| per_shard.into_iter().flatten().collect())
        })?;
        episodes.sort_by_key(|(id, _)| *id);
        Ok(episodes)
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("workers", &self.shards.len())
            .field("sessions", &self.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use alert_stats::units::Seconds;
    use alert_workload::{Goal, Scenario};

    fn spec(seed: u64, n_inputs: usize) -> SessionSpec {
        SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.4), 0.9),
            scenario: Scenario::memory_env(seed),
            n_inputs,
            seed: Some(seed),
            policy: None,
        }
    }

    #[test]
    fn drain_parallel_matches_serial_for_uneven_sessions() {
        let open_all = |rt: &mut Runtime| {
            for i in 0..6u64 {
                rt.session(spec(40 + i, 12 + (i as usize % 3) * 5))
                    .open()
                    .unwrap();
            }
        };
        let mut serial = Runtime::builder().build().unwrap();
        open_all(&mut serial);
        let reference = serial.drain_round_robin().unwrap();

        for workers in [1, 2, 3, 8] {
            let mut rt = Runtime::builder().build().unwrap();
            open_all(&mut rt);
            let episodes = rt.drain_parallel(workers).unwrap();
            assert_eq!(rt.session_count(), 0);
            assert_eq!(episodes.len(), reference.len());
            for ((id, ep), (rid, rep)) in episodes.iter().zip(&reference) {
                assert_eq!(id, rid);
                assert_eq!(ep.scheme, rep.scheme);
                assert_eq!(ep.records, rep.records, "workers={workers}, {id}");
            }
        }
    }

    #[test]
    fn sharded_runtime_serves_and_routes_by_id() {
        let mut sharded = Runtime::builder().build_sharded(3).unwrap();
        assert_eq!(sharded.workers(), 3);
        let ids: Vec<SessionId> = (0..5u64)
            .map(|i| sharded.session(spec(7 + i, 10)).open().unwrap())
            .collect();
        // Round-robin placement with stride allocation yields dense ids.
        assert_eq!(ids, (0..5).map(SessionId).collect::<Vec<_>>());
        assert_eq!(sharded.session_count(), 5);
        for &id in &ids {
            assert_eq!(sharded.shard_of(id), (id.0 % 3) as usize);
            let record = sharded.submit(id).unwrap().expect("one record");
            assert_eq!(record.index, 0);
            assert_eq!(sharded.progress(id).unwrap(), 1);
        }
        let episodes = sharded.drain().unwrap();
        assert_eq!(episodes.len(), 5);
        assert_eq!(sharded.session_count(), 0);
        for (id, ep) in &episodes {
            assert_eq!(ep.records.len(), 10, "{id}");
        }
    }

    #[test]
    fn sharded_runtime_matches_serial_runtime() {
        let mut serial = Runtime::builder().build().unwrap();
        let serial_ids: Vec<SessionId> = (0..7u64)
            .map(|i| serial.session(spec(100 + i, 15)).open().unwrap())
            .collect();
        let reference = serial.drain_round_robin().unwrap();

        let mut sharded = Runtime::builder().build_sharded(4).unwrap();
        let sharded_ids: Vec<SessionId> = (0..7u64)
            .map(|i| sharded.session(spec(100 + i, 15)).open().unwrap())
            .collect();
        assert_eq!(serial_ids, sharded_ids);
        let episodes = sharded.drain().unwrap();
        for ((id, ep), (rid, rep)) in episodes.iter().zip(&reference) {
            assert_eq!(id, rid);
            assert_eq!(ep.records, rep.records);
        }
    }

    #[test]
    fn build_sharded_rejects_custom_session_ids() {
        // The sharded runtime owns the id space; a user-configured
        // allocator must fail loudly instead of being silently dropped.
        let err = Runtime::builder()
            .session_ids(1000, 10)
            .build_sharded(2)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("session-id space"), "{err}");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut sharded = Runtime::builder().build_sharded(0).unwrap();
        assert_eq!(sharded.workers(), 1);
        let id = sharded.session(spec(3, 5)).open().unwrap();
        sharded.run_to_completion(id).unwrap();
        assert!(sharded.is_finished(id).unwrap());
        let ep = sharded.close(id).unwrap();
        assert_eq!(ep.records.len(), 5);

        let mut rt = Runtime::builder().build().unwrap();
        rt.session(spec(3, 5)).open().unwrap();
        assert_eq!(rt.drain_parallel(0).unwrap().len(), 1);
    }

    #[test]
    fn restored_snapshot_is_rehomed_to_a_stride_matching_shard() {
        // A snapshot taken in a 2-worker runtime was owned by a session
        // id with stride-2 residue; restoring it into a 3-worker runtime
        // must RE-HOME it — mint a fresh id satisfying the target's
        // stride so `shard_of` routes every subsequent request to the
        // owning shard — never silently keep the foreign id and misroute.
        let mut origin = Runtime::builder().build_sharded(2).unwrap();
        let old_id = origin.session(spec(77, 24)).open().unwrap();
        for _ in 0..9 {
            origin.submit(old_id).unwrap();
        }
        let snap = origin.snapshot_session(old_id).unwrap();

        let mut target = Runtime::builder().build_sharded(3).unwrap();
        // Occupy shards 0 and 1 so the restore round-robins onto shard 2
        // — a residue the origin id (0 mod 2) does not satisfy mod 3.
        let a = target.session(spec(1, 5)).open().unwrap();
        let b = target.session(spec(2, 5)).open().unwrap();
        assert_eq!((target.shard_of(a), target.shard_of(b)), (0, 1));

        let new_id = target.restore_session(&snap).unwrap();
        assert_ne!(new_id, old_id, "foreign id must not be reused verbatim");
        assert_eq!(
            target.shard_of(new_id),
            2,
            "re-homed id must satisfy the owning shard's stride"
        );
        // Routing by the new id reaches the restored state...
        assert_eq!(target.progress(new_id).unwrap(), 9);
        assert_eq!(target.scheme(new_id).unwrap(), "ALERT");
        // ...and resuming from it reproduces an uninterrupted run.
        let mut reference = Runtime::builder().build().unwrap();
        let rid = reference.session(spec(77, 24)).open().unwrap();
        reference.run_to_completion(rid).unwrap();
        let reference_ep = reference.close(rid).unwrap();
        target.run_to_completion(new_id).unwrap();
        let resumed = target.close(new_id).unwrap();
        assert_eq!(reference_ep.records, resumed.records);
    }

    #[test]
    fn sharded_checkpoint_migration_roundtrip() {
        let mut reference = Runtime::builder().build().unwrap();
        let rid = reference.session(spec(21, 30)).open().unwrap();
        reference.run_to_completion(rid).unwrap();
        let reference_ep = reference.close(rid).unwrap();

        let mut sharded = Runtime::builder().build_sharded(2).unwrap();
        let id = sharded.session(spec(21, 30)).open().unwrap();
        for _ in 0..13 {
            sharded.submit(id).unwrap();
        }
        let snap = sharded.snapshot_session(id).unwrap();
        let _ = sharded.close(id).unwrap();

        let mut other = Runtime::builder().build_sharded(3).unwrap();
        let id2 = other.restore_session(&snap).unwrap();
        assert_eq!(other.progress(id2).unwrap(), 13);
        other.run_to_completion(id2).unwrap();
        let resumed = other.close(id2).unwrap();
        assert_eq!(reference_ep.records, resumed.records);
    }
}
