//! Simulation configuration.

/// How cross-shard transactions are committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossShardProtocol {
    /// OmniLedger's lock/proof-of-acceptance/unlock-to-commit protocol
    /// (Section III.A), with the paper's optimization of sending
    /// transactions directly to the involved shards instead of gossiping
    /// to everyone.
    #[default]
    OmniLedgerLock,
    /// RapidChain-style yanking: input transactions are moved to the
    /// output shard by an inter-committee protocol, saving the client
    /// round trip (Section III.A; the paper predicts similar gains —
    /// this variant is the `ext_rapidchain` extension experiment).
    RapidChainYank,
}

/// Transaction inter-arrival model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateModel {
    /// Fixed spacing `1/rate` (the paper feeds transactions "at a
    /// predefined rate").
    #[default]
    Uniform,
    /// Exponential inter-arrivals with mean `1/rate` (Poisson stream).
    Poisson,
}

/// The placement strategy a simulation drives. This moved into the
/// placement layer itself so one `Strategy` names the algorithm
/// everywhere; re-exported here for compatibility.
pub use optchain_core::Strategy;

/// Full configuration of a simulation run. Defaults mirror the paper's
/// Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of shards (paper: 4–16, up to 62 in Fig 11).
    pub n_shards: u32,
    /// Transactions per second offered by the clients (paper: 2000–6000).
    pub tx_rate: f64,
    /// Total transactions to inject.
    pub total_txs: u64,
    /// Transactions per block (paper: 2000, from 1 MB / ~500 B).
    pub block_txs: u32,
    /// Link bandwidth in megabits per second (paper: 20 Mbps).
    pub bandwidth_mbps: f64,
    /// Base one-way link latency in milliseconds (paper: 100 ms).
    pub base_latency_ms: f64,
    /// Additional one-way latency per unit of coordinate distance, ms
    /// ("the distance between nodes affects the communication latency").
    pub latency_per_unit_ms: f64,
    /// Validators per shard committee (paper: ~400 plus a leader).
    pub validators_per_shard: u32,
    /// Gossip fan-out used for block dissemination inside a committee.
    pub gossip_fanout: u32,
    /// CPU time to verify one transaction, microseconds.
    pub verify_us_per_tx: f64,
    /// Number of client endpoints issuing transactions.
    pub n_clients: u32,
    /// Inter-arrival model.
    pub rate_model: RateModel,
    /// Cross-shard commit protocol.
    pub protocol: CrossShardProtocol,
    /// Client telemetry fidelity (see
    /// [`crate::telemetry::TelemetryFidelity`]); `Quantized` reproduces
    /// the paper's behaviour, `Raw` is the ablation.
    pub telemetry_fidelity: crate::TelemetryFidelity,
    /// How often shard telemetry is published to clients, seconds
    /// (staleness of queue/consensus observations).
    pub telemetry_interval_s: f64,
    /// How often queue sizes are sampled into the metrics, seconds.
    pub queue_sample_s: f64,
    /// Window width for the committed-per-window series, seconds
    /// (Fig 5 uses 50 s).
    pub commit_window_s: f64,
    /// Per-block probability that the shard leader fails and a view
    /// change must run before consensus completes (0 disables failures).
    pub leader_failure_rate: f64,
    /// Extra seconds a view change costs (timeout + re-election round).
    pub view_change_timeout_s: f64,
    /// RNG seed (consensus jitter, coordinates, Poisson arrivals).
    pub seed: u64,
    /// Workload seed (passed to the generator; equal seeds give every
    /// strategy the identical stream, as the paper requires).
    pub workload_seed: u64,
}

impl SimConfig {
    /// The paper's Table III configuration (16 shards, 4000 tps, 1M txs
    /// scaled down to the default `total_txs`).
    pub fn paper() -> Self {
        SimConfig {
            n_shards: 16,
            tx_rate: 4_000.0,
            total_txs: 100_000,
            block_txs: 2_000,
            bandwidth_mbps: 20.0,
            base_latency_ms: 100.0,
            latency_per_unit_ms: 50.0,
            validators_per_shard: 400,
            gossip_fanout: 8,
            verify_us_per_tx: 250.0,
            n_clients: 64,
            rate_model: RateModel::Uniform,
            protocol: CrossShardProtocol::OmniLedgerLock,
            telemetry_fidelity: crate::TelemetryFidelity::Quantized,
            telemetry_interval_s: 1.0,
            queue_sample_s: 5.0,
            commit_window_s: 50.0,
            leader_failure_rate: 0.0,
            view_change_timeout_s: 5.0,
            seed: 0x0C0FFEE,
            workload_seed: 0xB17C04,
        }
    }

    /// A fast configuration for tests and doc examples (small committees,
    /// small blocks).
    pub fn small() -> Self {
        SimConfig {
            n_shards: 4,
            tx_rate: 500.0,
            total_txs: 5_000,
            block_txs: 200,
            validators_per_shard: 16,
            n_clients: 8,
            queue_sample_s: 1.0,
            commit_window_s: 10.0,
            ..Self::paper()
        }
    }

    /// Checks the configuration, returning a description of the first
    /// violated constraint.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the invalid field.
    pub fn check(&self) -> Result<(), String> {
        let rules: [(bool, &str); 14] = [
            (self.n_shards > 0, "n_shards must be positive"),
            (
                self.tx_rate > 0.0 && self.tx_rate.is_finite(),
                "tx_rate must be positive",
            ),
            (self.total_txs > 0, "total_txs must be positive"),
            (self.block_txs > 0, "block_txs must be positive"),
            (self.bandwidth_mbps > 0.0, "bandwidth must be positive"),
            (self.base_latency_ms >= 0.0, "latency must be non-negative"),
            (self.validators_per_shard > 0, "validators required"),
            (self.gossip_fanout >= 2, "gossip fanout must be >= 2"),
            (self.n_clients > 0, "clients required"),
            (
                self.telemetry_interval_s > 0.0,
                "telemetry interval must be positive",
            ),
            (
                self.queue_sample_s > 0.0,
                "queue sample interval must be positive",
            ),
            (self.commit_window_s > 0.0, "commit window must be positive"),
            (
                (0.0..=1.0).contains(&self.leader_failure_rate),
                "leader_failure_rate must be a probability",
            ),
            (
                self.view_change_timeout_s >= 0.0,
                "view_change_timeout_s must be non-negative",
            ),
        ];
        for (ok, msg) in rules {
            if !ok {
                return Err(msg.to_string());
            }
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on invalid values; prefer
    /// [`SimConfig::check`] for recoverable handling.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::paper().validate();
        SimConfig::small().validate();
    }

    #[test]
    fn paper_preset_matches_table_iii() {
        let c = SimConfig::paper();
        assert_eq!(c.block_txs, 2_000);
        assert_eq!(c.bandwidth_mbps, 20.0);
        assert_eq!(c.base_latency_ms, 100.0);
        assert_eq!(c.validators_per_shard, 400);
    }

    #[test]
    #[should_panic(expected = "n_shards")]
    fn zero_shards_rejected() {
        let mut c = SimConfig::small();
        c.n_shards = 0;
        c.validate();
    }

    #[test]
    fn strategy_is_the_core_type() {
        // The re-export must stay the same item callers matched on.
        let s: optchain_core::Strategy = Strategy::OptChain;
        assert_eq!(s.label(), "OptChain");
        assert_eq!(Strategy::figure_set().len(), 4);
    }
}
