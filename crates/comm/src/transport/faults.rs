//! Deterministic fault injection for any [`Communicator`].
//!
//! Production FL treats client dropout, message loss and payload corruption
//! as the normal case (xaynet's round state machine, pfl-research's
//! simulation harness), yet a naive transport wedges the server the first
//! time a peer misses a round. [`FaultyCommunicator`] wraps a real
//! transport and injects faults from a [`FaultPlan`] — seeded and fully
//! deterministic, so a failing run replays bit-for-bit regardless of thread
//! scheduling: every probabilistic decision is a pure function of
//! `(seed, peer, per-link message index)`.
//!
//! Faults are applied on the **send path** (the wire loses, delays or
//! mangles messages in flight; the receiver just sees the consequences) —
//! except permanent disconnects, which also poison the receive path the
//! way a torn-down TCP connection would.
//!
//! A "round" in a [`FaultPlan`] schedule is the 1-based index of the
//! message on that link. The FL runners exchange exactly one message per
//! link per federation round, so link round == federation round there.

use super::{CommError, Communicator, TrafficSnapshot};
use appfl_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message is silently lost in flight.
    Drop,
    /// Delivery is delayed by the given duration.
    Delay(Duration),
    /// One payload bit is flipped.
    BitFlip,
    /// The payload loses its trailing half.
    Truncate,
    /// The link to the peer goes down permanently.
    Disconnect,
}

/// A deterministic, seedable schedule of faults.
///
/// Combines explicit per-peer, per-round entries (`fault_at`) with
/// probabilistic modes (`drop_prob`, `corrupt_prob`, `delay`) whose
/// decisions are derived from the seed and the per-link message counter —
/// never from wall-clock time or a shared RNG — so two runs with the same
/// plan and the same message sequence inject identical faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    corrupt_prob: f64,
    delay_prob: f64,
    delay: Duration,
    /// `(peer, round) → fault` explicit schedule.
    scheduled: HashMap<(usize, usize), FaultKind>,
    /// `peer → round` after which the link is permanently down
    /// (`0` = down from the start).
    disconnect_after: HashMap<usize, usize>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drops each outgoing message independently with probability `p`.
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.drop_prob = p;
        self
    }

    /// Corrupts (bit-flip or truncation, chosen deterministically) each
    /// outgoing message independently with probability `p`.
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.corrupt_prob = p;
        self
    }

    /// Delays each outgoing message by `delay` with probability `p`.
    pub fn delay(mut self, p: f64, delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// Schedules `kind` for the `round`-th (1-based) message to `peer`.
    pub fn fault_at(mut self, peer: usize, round: usize, kind: FaultKind) -> Self {
        assert!(round >= 1, "rounds are 1-based");
        self.scheduled.insert((peer, round), kind);
        self
    }

    /// Permanently disconnects the link to `peer` after its `round`-th
    /// message (`0` = dead from the start).
    pub fn disconnect_after(mut self, peer: usize, round: usize) -> Self {
        self.disconnect_after.insert(peer, round);
        self
    }

    /// A uniform draw in `[0, 1)` that depends only on the plan seed, the
    /// link, the message index and a salt — deterministic across runs
    /// (the shared splitmix64 primitive from [`crate::policy`]).
    fn draw(&self, peer: usize, round: usize, salt: u64) -> f64 {
        let lane = crate::policy::lane3(peer as u64, round as u64, salt);
        crate::policy::seeded_unit(self.seed, lane)
    }

    /// The fault (if any) for the `round`-th message to `peer`.
    fn fault_for(&self, peer: usize, round: usize) -> Option<FaultKind> {
        if let Some(&kind) = self.scheduled.get(&(peer, round)) {
            return Some(kind);
        }
        if self.drop_prob > 0.0 && self.draw(peer, round, 1) < self.drop_prob {
            return Some(FaultKind::Drop);
        }
        if self.corrupt_prob > 0.0 && self.draw(peer, round, 2) < self.corrupt_prob {
            return Some(if self.draw(peer, round, 3) < 0.5 {
                FaultKind::BitFlip
            } else {
                FaultKind::Truncate
            });
        }
        if self.delay_prob > 0.0 && self.draw(peer, round, 4) < self.delay_prob {
            return Some(FaultKind::Delay(self.delay));
        }
        None
    }
}

/// Counters of injected faults (for assertions and run reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently lost.
    pub dropped: usize,
    /// Messages bit-flipped or truncated.
    pub corrupted: usize,
    /// Messages delayed.
    pub delayed: usize,
    /// Sends/recvs refused because the link was down.
    pub disconnects: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Per-peer count of messages sent on this endpoint's link.
    sent: HashMap<usize, usize>,
    /// Peers whose link has gone down permanently.
    dead: HashMap<usize, bool>,
    stats: FaultStats,
}

/// A [`Communicator`] decorator injecting faults from a [`FaultPlan`].
///
/// Collectives (`gather`, `broadcast`, `barrier`) route through the
/// decorated `send`/`recv`, so they experience the same faults.
pub struct FaultyCommunicator<C: Communicator> {
    inner: C,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    retries_hint: AtomicUsize,
    telemetry: Telemetry,
}

impl<C: Communicator> FaultyCommunicator<C> {
    /// Wraps a transport with a fault plan.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        FaultyCommunicator {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
            retries_hint: AtomicUsize::new(0),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Emits a `fault` mark (detail = fault kind, peer = destination,
    /// round = link message index) for every injected fault.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().expect("fault state poisoned").stats
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn link_dead(&self, peer: usize) -> bool {
        let mut st = self.state.lock().expect("fault state poisoned");
        if st.dead.get(&peer).copied().unwrap_or(false) {
            st.stats.disconnects += 1;
            return true;
        }
        if let Some(&after) = self.plan.disconnect_after.get(&peer) {
            let sent = st.sent.get(&peer).copied().unwrap_or(0);
            if sent >= after {
                st.dead.insert(peer, true);
                st.stats.disconnects += 1;
                return true;
            }
        }
        false
    }
}

impl<C: Communicator> Communicator for FaultyCommunicator<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, mut payload: Vec<u8>) -> Result<(), CommError> {
        if self.link_dead(to) {
            return Err(CommError::Disconnected { peer: to });
        }
        let (round, fault) = {
            let mut st = self.state.lock().expect("fault state poisoned");
            let counter = st.sent.entry(to).or_insert(0);
            *counter += 1;
            let round = *counter;
            let fault = self.plan.fault_for(to, round);
            match fault {
                Some(FaultKind::Drop) => st.stats.dropped += 1,
                Some(FaultKind::BitFlip) | Some(FaultKind::Truncate) => st.stats.corrupted += 1,
                Some(FaultKind::Delay(_)) => st.stats.delayed += 1,
                Some(FaultKind::Disconnect) => {
                    st.dead.insert(to, true);
                    st.stats.disconnects += 1;
                }
                None => {}
            }
            (round, fault)
        };
        if let Some(kind) = fault {
            let detail = match kind {
                FaultKind::Drop => "drop",
                FaultKind::Delay(_) => "delay",
                FaultKind::BitFlip => "bitflip",
                FaultKind::Truncate => "truncate",
                FaultKind::Disconnect => "disconnect",
            };
            self.telemetry
                .mark("fault", Some(round as u64), Some(to as u64), Some(detail));
        }
        match fault {
            None => self.inner.send(to, payload),
            Some(FaultKind::Drop) => Ok(()), // lost in flight; sender can't tell
            Some(FaultKind::Disconnect) => Err(CommError::Disconnected { peer: to }),
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.send(to, payload)
            }
            Some(FaultKind::BitFlip) => {
                if !payload.is_empty() {
                    let bit = (self.plan.draw(to, round, 5) * (payload.len() * 8) as f64) as usize;
                    let bit = bit.min(payload.len() * 8 - 1);
                    payload[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.send(to, payload)
            }
            Some(FaultKind::Truncate) => {
                payload.truncate(payload.len() / 2);
                self.inner.send(to, payload)
            }
        }
    }

    fn recv(&self, from: usize) -> Result<Vec<u8>, CommError> {
        if self.link_dead(from) {
            return Err(CommError::Disconnected { peer: from });
        }
        self.inner.recv(from)
    }

    fn supports_recv_any(&self) -> bool {
        self.inner.supports_recv_any()
    }

    /// Messages from a peer whose link is down are discarded, as a torn
    /// down connection would lose them, and the wait goes on: an error here
    /// would tell the caller that every remaining peer is gone.
    fn recv_any(&self) -> Result<(usize, Vec<u8>), CommError> {
        loop {
            let (from, payload) = self.inner.recv_any()?;
            if !self.link_dead(from) {
                return Ok((from, payload));
            }
        }
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<u8>, CommError> {
        if self.link_dead(from) {
            return Err(CommError::Disconnected { peer: from });
        }
        self.inner.recv_timeout(from, timeout)
    }

    /// As [`Self::recv_any`], within `timeout` overall.
    fn recv_any_timeout(&self, timeout: Duration) -> Result<(usize, Vec<u8>), CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (from, payload) = self.inner.recv_any_timeout(left)?;
            if !self.link_dead(from) {
                return Ok((from, payload));
            }
        }
    }

    fn stats(&self) -> TrafficSnapshot {
        self.inner.stats()
    }

    fn peer_stats(&self, peer: usize) -> Option<TrafficSnapshot> {
        self.inner.peer_stats(peer)
    }
}

impl<C: Communicator> FaultyCommunicator<C> {
    /// Scratch counter a retry loop may bump to expose its attempt count to
    /// the party that owns the endpoint (used by run reports).
    pub fn note_retry(&self) {
        self.retries_hint.fetch_add(1, Ordering::Relaxed);
    }

    /// Retries noted via [`FaultyCommunicator::note_retry`].
    pub fn noted_retries(&self) -> usize {
        self.retries_hint.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcNetwork;

    fn faulty_pair(
        plan: FaultPlan,
    ) -> (
        FaultyCommunicator<crate::transport::InProcEndpoint>,
        crate::transport::InProcEndpoint,
    ) {
        let mut eps = InProcNetwork::new(2);
        let b = eps.pop().unwrap();
        let a = FaultyCommunicator::new(eps.pop().unwrap(), plan);
        (a, b)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (a, b) = faulty_pair(FaultPlan::new(1));
        a.send(1, vec![1, 2, 3]).unwrap();
        assert_eq!(b.recv(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(a.fault_stats(), FaultStats::default());
    }

    #[test]
    fn scheduled_drop_loses_exactly_that_message() {
        let plan = FaultPlan::new(2).fault_at(1, 2, FaultKind::Drop);
        let (a, b) = faulty_pair(plan);
        a.send(1, vec![1]).unwrap();
        a.send(1, vec![2]).unwrap(); // dropped
        a.send(1, vec![3]).unwrap();
        assert_eq!(b.recv(0).unwrap(), vec![1]);
        assert_eq!(b.recv(0).unwrap(), vec![3]);
        assert_eq!(a.fault_stats().dropped, 1);
    }

    #[test]
    fn scheduled_bitflip_corrupts_payload() {
        let plan = FaultPlan::new(3).fault_at(1, 1, FaultKind::BitFlip);
        let (a, b) = faulty_pair(plan);
        a.send(1, vec![0u8; 8]).unwrap();
        let got = b.recv(0).unwrap();
        assert_eq!(got.len(), 8);
        assert_ne!(got, vec![0u8; 8], "exactly one bit must differ");
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(a.fault_stats().corrupted, 1);
    }

    #[test]
    fn scheduled_truncate_halves_payload() {
        let plan = FaultPlan::new(4).fault_at(1, 1, FaultKind::Truncate);
        let (a, b) = faulty_pair(plan);
        a.send(1, vec![9u8; 10]).unwrap();
        assert_eq!(b.recv(0).unwrap(), vec![9u8; 5]);
    }

    #[test]
    fn disconnect_poisons_the_link_permanently() {
        let plan = FaultPlan::new(5).fault_at(1, 2, FaultKind::Disconnect);
        let (a, b) = faulty_pair(plan);
        a.send(1, vec![1]).unwrap();
        assert!(matches!(
            a.send(1, vec![2]),
            Err(CommError::Disconnected { peer: 1 })
        ));
        // Every later op on the link fails too.
        assert!(a.send(1, vec![3]).is_err());
        assert!(a.recv(1).is_err());
        assert_eq!(b.recv(0).unwrap(), vec![1]);
    }

    #[test]
    fn disconnect_after_zero_means_dead_from_the_start() {
        let plan = FaultPlan::new(6).disconnect_after(1, 0);
        let (a, _b) = faulty_pair(plan);
        assert!(matches!(
            a.send(1, vec![1]),
            Err(CommError::Disconnected { peer: 1 })
        ));
        assert!(a.recv_timeout(1, Duration::from_millis(5)).is_err());
        assert!(a.fault_stats().disconnects >= 1);
    }

    #[test]
    fn recv_any_discards_messages_from_a_dead_link() {
        let plan = FaultPlan::new(1).disconnect_after(1, 0);
        let mut eps = InProcNetwork::new(3);
        let live = eps.pop().unwrap();
        let dead = eps.pop().unwrap();
        let a = FaultyCommunicator::new(eps.pop().unwrap(), plan);
        dead.send(0, vec![1]).unwrap();
        live.send(0, vec![2]).unwrap();
        assert_eq!(a.recv_any().unwrap(), (2, vec![2]));
        dead.send(0, vec![3]).unwrap();
        live.send(0, vec![4]).unwrap();
        assert_eq!(
            a.recv_any_timeout(Duration::from_millis(50)).unwrap(),
            (2, vec![4])
        );
        // With only the dead peer sending, the wait runs out.
        dead.send(0, vec![5]).unwrap();
        assert_eq!(
            a.recv_any_timeout(Duration::from_millis(20)),
            Err(CommError::Timeout { peer: None })
        );
        assert!(a.fault_stats().disconnects >= 3);
    }

    #[test]
    fn probabilistic_drops_are_deterministic_across_runs() {
        let delivered = |seed: u64| -> Vec<u8> {
            let (a, b) = faulty_pair(FaultPlan::new(seed).drop_prob(0.5));
            for i in 0..20u8 {
                a.send(1, vec![i]).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(m) = b.recv_timeout(0, Duration::from_millis(10)) {
                got.push(m[0]);
            }
            got
        };
        let first = delivered(42);
        assert_eq!(first, delivered(42), "same seed must replay identically");
        assert!(first.len() < 20, "some messages must drop at p=0.5");
        assert!(!first.is_empty(), "some messages must survive at p=0.5");
        assert_ne!(first, delivered(43), "different seed, different schedule");
    }

    #[test]
    fn corrupted_messages_fail_grpc_decoding_cleanly() {
        use crate::transport::GrpcChannel;
        let mut eps = InProcNetwork::new(2);
        let b = GrpcChannel::new(eps.pop().unwrap());
        let a = GrpcChannel::new(FaultyCommunicator::new(
            eps.pop().unwrap(),
            FaultPlan::new(7).fault_at(1, 1, FaultKind::Truncate),
        ));
        a.send(1, vec![1u8; 64]).unwrap();
        assert!(matches!(b.recv(0), Err(CommError::Frame(_))));
    }

    #[test]
    fn injected_faults_emit_marks_with_kind_and_peer() {
        use appfl_telemetry::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let plan =
            FaultPlan::new(9)
                .fault_at(1, 1, FaultKind::Drop)
                .fault_at(1, 2, FaultKind::BitFlip);
        let mut eps = InProcNetwork::new(2);
        let _b = eps.pop().unwrap();
        let a = FaultyCommunicator::new(eps.pop().unwrap(), plan)
            .with_telemetry(Telemetry::new(sink.clone()));
        a.send(1, vec![1]).unwrap();
        a.send(1, vec![2, 3]).unwrap();
        a.send(1, vec![4]).unwrap(); // clean: no mark
        let marks = sink.events();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].detail.as_deref(), Some("drop"));
        assert_eq!(marks[0].peer, Some(1));
        assert_eq!(marks[0].round, Some(1));
        assert_eq!(marks[1].detail.as_deref(), Some("bitflip"));
    }

    #[test]
    fn wrapper_delegates_capability_probe() {
        let mut eps = InProcNetwork::new(2);
        let a = FaultyCommunicator::new(eps.remove(0), FaultPlan::new(1));
        assert!(
            a.supports_recv_any(),
            "inproc supports it; wrapper must too"
        );
        assert!(a.peer_stats(1).is_some());
    }

    #[test]
    fn gather_survives_fault_free_plan() {
        let eps = InProcNetwork::new(3);
        let mut handles = Vec::new();
        for ep in eps {
            let ch = FaultyCommunicator::new(ep, FaultPlan::new(8));
            handles.push(std::thread::spawn(move || {
                let payload = vec![ch.rank() as u8];
                ch.gather(0, payload)
            }));
        }
        let mut root = None;
        for h in handles {
            if let Some(v) = h.join().unwrap().unwrap() {
                root = Some(v);
            }
        }
        assert_eq!(root.unwrap(), vec![vec![0], vec![1], vec![2]]);
    }
}
