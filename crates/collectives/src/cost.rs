//! α–β completion-time models for collectives.
//!
//! The simulator models each collective as a single timed operation whose duration
//! follows the standard α–β (latency–bandwidth) cost model: a collective of algorithm
//! `A` over `p` ranks moving `n` bytes on links of bandwidth `B` with per-step latency
//! `α` takes `steps(A, p)·α + traffic_factor(A, p)·n/B`. This is exactly the fidelity
//! of the paper's own trace-driven simulation (§4.2): what matters for the photonic
//! rail question is *when* collectives start and how long they occupy the rail, not
//! per-packet behaviour.
//!
//! ## Byte-count conventions
//!
//! `bytes` always refers to the *full logical buffer* involved in the collective:
//!
//! * `AllReduce`: the buffer being reduced (identical on every rank).
//! * `AllGather`: the gathered result (sum of all shards).
//! * `ReduceScatter`: the input buffer on each rank (the output shard is `bytes / p`).
//! * `AllToAll`: the data each rank sends in total.
//! * `Broadcast`: the broadcast buffer.
//! * `SendRecv`: the message size.
//! * `Barrier`: ignored.

use crate::algorithm::Algorithm;
use crate::kind::CollectiveKind;
use railsim_sim::{Bandwidth, Bytes, SimDuration};
use serde::{Deserialize, Serialize};

/// Parameters of the α–β model: per-step latency and per-link bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Per-communication-step latency (kernel launch, NIC doorbell, propagation).
    pub alpha: SimDuration,
    /// Bandwidth of the link each rank sends on.
    pub bandwidth: Bandwidth,
}

impl CostParams {
    /// Creates cost parameters.
    pub fn new(alpha: SimDuration, bandwidth: Bandwidth) -> Self {
        CostParams { alpha, bandwidth }
    }
}

/// Number of α-latency steps for a `(kind, algorithm)` pair over `p` ranks.
pub fn step_count(kind: CollectiveKind, algorithm: Algorithm, p: usize) -> u64 {
    if p <= 1 {
        return 0;
    }
    let p = p as u64;
    let log2p = (p as f64).log2().ceil() as u64;
    match kind {
        CollectiveKind::AllReduce => match algorithm {
            Algorithm::Ring => 2 * (p - 1),
            Algorithm::DoubleBinaryTree => 2 * log2p,
            Algorithm::HalvingDoubling => 2 * log2p,
            Algorithm::Direct => 2,
        },
        CollectiveKind::AllGather | CollectiveKind::ReduceScatter => match algorithm {
            Algorithm::Ring => p - 1,
            Algorithm::DoubleBinaryTree | Algorithm::HalvingDoubling => log2p,
            Algorithm::Direct => 1,
        },
        CollectiveKind::AllToAll => match algorithm {
            Algorithm::Direct => 1,
            // Ring-style neighbor exchange needs p-1 rounds to deliver everything.
            _ => p - 1,
        },
        CollectiveKind::Broadcast => match algorithm {
            Algorithm::Ring => p - 1,
            _ => log2p,
        },
        CollectiveKind::SendRecv => 1,
        CollectiveKind::Barrier => log2p.max(1),
    }
}

/// The multiple of `bytes / bandwidth` a `(kind, algorithm)` pair transfers per rank.
pub fn traffic_factor(kind: CollectiveKind, algorithm: Algorithm, p: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    match kind {
        CollectiveKind::AllReduce => match algorithm {
            // Bandwidth-optimal: reduce-scatter + all-gather.
            Algorithm::Ring | Algorithm::HalvingDoubling => 2.0 * (pf - 1.0) / pf,
            // Pipelined double binary tree moves the full buffer twice.
            Algorithm::DoubleBinaryTree => 2.0,
            // Direct: send the whole buffer to a reducer and receive the result.
            Algorithm::Direct => 2.0,
        },
        CollectiveKind::AllGather | CollectiveKind::ReduceScatter => match algorithm {
            Algorithm::Ring | Algorithm::HalvingDoubling => (pf - 1.0) / pf,
            Algorithm::DoubleBinaryTree => 1.0,
            Algorithm::Direct => (pf - 1.0) / pf,
        },
        CollectiveKind::AllToAll => (pf - 1.0) / pf,
        CollectiveKind::Broadcast => 1.0,
        CollectiveKind::SendRecv => 1.0,
        CollectiveKind::Barrier => 0.0,
    }
}

/// Completion time of a collective under the α–β model.
///
/// Groups of one rank complete instantly. See the module documentation for the byte
/// count conventions.
pub fn collective_time(
    kind: CollectiveKind,
    algorithm: Algorithm,
    group_size: usize,
    bytes: Bytes,
    params: &CostParams,
) -> SimDuration {
    if group_size <= 1 {
        return SimDuration::ZERO;
    }
    let steps = step_count(kind, algorithm, group_size);
    let latency = params.alpha.saturating_mul(steps);
    let factor = traffic_factor(kind, algorithm, group_size);
    let serialization = params.bandwidth.transfer_time(bytes).mul_f64(factor);
    latency.saturating_add(serialization)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        // 400 Gbps = 50 GB/s, alpha = 10 us.
        CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0))
    }

    #[test]
    fn ring_allreduce_matches_closed_form() {
        // 1 GB over 8 ranks: 2*(7/8)*1GB / 50GB/s = 35 ms, plus 14 * 10us = 0.14 ms.
        let t = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            8,
            Bytes::from_gb(1),
            &params(),
        );
        assert!((t.as_millis_f64() - 35.14).abs() < 0.01, "got {t}");
    }

    #[test]
    fn allgather_and_reducescatter_are_half_of_allreduce_bandwidth() {
        let ar = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            8,
            Bytes::from_gb(1),
            &params(),
        );
        let ag = collective_time(
            CollectiveKind::AllGather,
            Algorithm::Ring,
            8,
            Bytes::from_gb(1),
            &params(),
        );
        let rs = collective_time(
            CollectiveKind::ReduceScatter,
            Algorithm::Ring,
            8,
            Bytes::from_gb(1),
            &params(),
        );
        assert_eq!(ag, rs);
        // AllReduce moves twice the data of AllGather (and has twice the steps).
        assert!((ar.as_secs_f64() / ag.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tree_beats_ring_for_small_messages_large_groups() {
        // Latency-bound regime: 1 KB over 512 ranks.
        let ring = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            512,
            Bytes::from_kb(1),
            &params(),
        );
        let tree = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::DoubleBinaryTree,
            512,
            Bytes::from_kb(1),
            &params(),
        );
        assert!(
            tree < ring,
            "tree {tree} should beat ring {ring} on latency"
        );
    }

    #[test]
    fn ring_beats_tree_for_large_messages() {
        // Bandwidth-bound regime: 4 GB over 8 ranks.
        let ring = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            8,
            Bytes::from_gb(4),
            &params(),
        );
        let tree = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::DoubleBinaryTree,
            8,
            Bytes::from_gb(4),
            &params(),
        );
        assert!(
            ring < tree,
            "ring {ring} should beat tree {tree} on bandwidth"
        );
    }

    #[test]
    fn single_rank_groups_are_free() {
        let t = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            1,
            Bytes::from_gb(1),
            &params(),
        );
        assert_eq!(t, SimDuration::ZERO);
    }

    #[test]
    fn send_recv_is_latency_plus_serialization() {
        let t = collective_time(
            CollectiveKind::SendRecv,
            Algorithm::Direct,
            2,
            Bytes::from_mb(64),
            &params(),
        );
        // 64 MB / 50 GB/s = 1.28 ms + 10 us.
        assert!((t.as_millis_f64() - 1.29).abs() < 0.01, "got {t}");
    }

    #[test]
    fn barrier_costs_only_latency() {
        let t = collective_time(
            CollectiveKind::Barrier,
            Algorithm::HalvingDoubling,
            16,
            Bytes::from_gb(100),
            &params(),
        );
        assert_eq!(t, SimDuration::from_micros(40));
    }

    #[test]
    fn larger_groups_move_more_total_data_but_similar_per_rank_time() {
        // Ring AllReduce per-rank time converges to 2*n/B as p grows.
        let t8 = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            8,
            Bytes::from_gb(1),
            &params(),
        );
        let t64 = collective_time(
            CollectiveKind::AllReduce,
            Algorithm::Ring,
            64,
            Bytes::from_gb(1),
            &params(),
        );
        assert!(t64 > t8);
        assert!(t64.as_secs_f64() < t8.as_secs_f64() * 1.2);
    }

    #[test]
    fn alltoall_direct_single_step() {
        assert_eq!(
            step_count(CollectiveKind::AllToAll, Algorithm::Direct, 16),
            1
        );
        assert_eq!(
            step_count(CollectiveKind::AllToAll, Algorithm::Ring, 16),
            15
        );
    }
}
