//! Inference-serving job semantics: elastic replica deployments and the open-loop
//! request-arrival process.
//!
//! A *serving* job runs an inference DAG (see
//! [`railsim_workload::InferenceDagBuilder`]) instead of a fixed iteration count:
//! it sits idle until the injected timeline delivers a
//! [`RequestBurst`](crate::ScenarioEvent::RequestBurst), then iterates — each
//! finished iteration retires up to `batch_capacity × active replicas` queued
//! requests, FIFO — until its backlog drains, going idle again between bursts.
//! [`ScenarioEvent::JobGrow`] / [`ScenarioEvent::JobShrink`] resize the active
//! replica set at the next iteration boundary: the DAG always carries every
//! replica's tasks (placed up front through the usual
//! [`JobPlacement`](crate::JobPlacement) machinery), and the driver masks whole
//! replica slices in and out — inference replicas share no tasks, so a masked
//! replica is a closed subgraph that simply does not execute.
//!
//! [`ArrivalProcess`] generates the burst timeline deterministically (splitmix64):
//! the same seed always produces the same open-loop arrival sequence, so serving
//! scenarios are byte-identical run to run like everything else in the simulator.

use crate::scenario::ScenarioEvent;
use crate::splitmix::SplitMix64;
use railsim_sim::{SimDuration, SimTime};
use railsim_workload::{InferenceConfig, JobId};

/// The serving-side declaration of one elastic inference job.
///
/// Attached to a job via [`ScenarioSpec::serving_job`](crate::ScenarioSpec::serving_job);
/// the DAG itself comes from [`railsim_workload::InferenceDagBuilder`]. `replicas × gpus_per_replica` must
/// equal the DAG's world size — the scenario builder asserts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingSpec {
    /// Maximum replica count — the number of replica slices baked into the DAG.
    pub replicas: u32,
    /// GPUs per replica (tensor × pipeline degrees of the serving config).
    pub gpus_per_replica: u32,
    /// Replicas active when serving starts (clamped to `[1, replicas]` by grow /
    /// shrink events; must be in that range up front).
    pub initial_replicas: u32,
    /// Requests one active replica retires per finished serving iteration.
    pub batch_capacity: u32,
}

impl ServingSpec {
    /// Derives the spec from an [`InferenceConfig`]: the replica geometry comes
    /// straight from the config, and each replica retires one full request batch
    /// per iteration.
    pub fn for_inference(config: &InferenceConfig, initial_replicas: u32) -> ServingSpec {
        ServingSpec {
            replicas: config.replicas,
            gpus_per_replica: config.gpus_per_replica(),
            initial_replicas,
            batch_capacity: config.batch_size,
        }
    }

    /// Whether the spec is internally consistent (the scenario builder asserts
    /// this with a diagnostic).
    pub fn is_valid(&self) -> bool {
        self.replicas >= 1
            && self.gpus_per_replica >= 1
            && (1..=self.replicas).contains(&self.initial_replicas)
            && self.batch_capacity >= 1
    }
}

/// Deterministic open-loop request arrivals: a seeded splitmix64 stream drives
/// inter-arrival gaps and burst sizes, producing a
/// [`RequestBurst`](crate::ScenarioEvent::RequestBurst) timeline to inject into a
/// scenario.
///
/// Gaps are uniform in `[0.5, 1.5) × mean_interarrival` and burst sizes uniform in
/// `[1, max_burst]` — a bursty but bounded arrival process. The stream is
/// open-loop: arrivals do not react to service times, so a slow fabric grows the
/// backlog instead of thinning the offered load.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rng: SplitMix64,
    mean_interarrival: SimDuration,
    max_burst: u32,
}

impl ArrivalProcess {
    /// Starts a stream.
    ///
    /// # Panics
    /// Panics when `mean_interarrival` is zero or `max_burst` is zero — the stream
    /// would emit unboundedly many (or empty) bursts.
    pub fn new(seed: u64, mean_interarrival: SimDuration, max_burst: u32) -> ArrivalProcess {
        assert!(
            mean_interarrival > SimDuration::ZERO,
            "arrival process needs a positive mean inter-arrival gap"
        );
        assert!(max_burst >= 1, "arrival bursts carry at least one request");
        ArrivalProcess {
            rng: SplitMix64::new(seed),
            mean_interarrival,
            max_burst,
        }
    }

    /// Generates every burst for `job` in `[from, horizon)`, ready to feed to
    /// [`ScenarioSpec::inject`](crate::ScenarioSpec) (the scenario sorts by time, so
    /// interleaving several jobs' streams needs no care).
    pub fn bursts(
        &mut self,
        job: JobId,
        from: SimTime,
        horizon: SimTime,
    ) -> Vec<(SimTime, ScenarioEvent)> {
        let mut out = Vec::new();
        let mut at = from;
        loop {
            let gap = self.mean_interarrival.mul_f64(0.5 + self.rng.next_f64());
            at += gap;
            if at >= horizon {
                return out;
            }
            let requests = 1 + self.rng.below(self.max_burst as u64) as u32;
            out.push((at, ScenarioEvent::RequestBurst { job, requests }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_catches_degenerate_geometry() {
        let mut spec = ServingSpec {
            replicas: 3,
            gpus_per_replica: 4,
            initial_replicas: 2,
            batch_capacity: 8,
        };
        assert!(spec.is_valid());
        spec.initial_replicas = 4;
        assert!(!spec.is_valid(), "initial replicas beyond the maximum");
        spec.initial_replicas = 0;
        assert!(
            !spec.is_valid(),
            "a deployment serves with at least one replica"
        );
        spec.initial_replicas = 1;
        spec.batch_capacity = 0;
        assert!(!spec.is_valid(), "a zero batch never retires requests");
    }

    #[test]
    fn arrival_stream_is_deterministic_and_bounded() {
        let make = || ArrivalProcess::new(7, SimDuration::from_millis(10), 4);
        let horizon = SimTime::from_millis(500);
        let a = make().bursts(JobId(1), SimTime::ZERO, horizon);
        let b = make().bursts(JobId(1), SimTime::ZERO, horizon);
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        let mut last = SimTime::ZERO;
        for (at, event) in &a {
            assert!(*at < horizon);
            assert!(*at > last, "arrival times strictly increase");
            last = *at;
            match event {
                ScenarioEvent::RequestBurst { job, requests } => {
                    assert_eq!(*job, JobId(1));
                    assert!((1..=4).contains(requests));
                }
                other => panic!("arrival streams only emit request bursts, got {other:?}"),
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let horizon = SimTime::from_millis(200);
        let a = ArrivalProcess::new(1, SimDuration::from_millis(10), 4).bursts(
            JobId(0),
            SimTime::ZERO,
            horizon,
        );
        let b = ArrivalProcess::new(2, SimDuration::from_millis(10), 4).bursts(
            JobId(0),
            SimTime::ZERO,
            horizon,
        );
        assert_ne!(a, b);
    }
}
