//! Synthetic Bitcoin-like transaction workloads for the OptChain
//! reproduction.
//!
//! The paper evaluates on the first 10 million transactions of the MIT
//! Bitcoin dataset (Section V.A). That dataset is not redistributable
//! here, so this crate generates a synthetic stream with the statistics
//! the OptChain algorithms are actually sensitive to:
//!
//! * power-law-ish in/out degree of the induced TaN network with an
//!   average degree near the paper's 2.3;
//! * most transactions with 1–2 inputs and 1–2 outputs (93% of in-degrees
//!   below 3, ~97% of out-degrees below 10);
//! * coinbase transactions on a block-like schedule, including a heavily
//!   coinbase-dominated bootstrap phase like early Bitcoin;
//! * wallet community structure — wallets mostly spend their own recent
//!   outputs and pay a stable contact set — which is the locality that
//!   T2S placement exploits;
//! * optional spam episodes (many-input sweep transactions) recreating
//!   the average-degree bump of Fig 2c.
//!
//! Every stream is a **valid UTXO history**: replaying it into
//! [`optchain_utxo::Ledger`] never fails, and transaction ids are dense
//! arrival-order sequence numbers.
//!
//! # Example
//!
//! ```
//! use optchain_workload::{WorkloadConfig, WorkloadGenerator};
//!
//! let config = WorkloadConfig::small().with_seed(7);
//! let txs: Vec<_> = WorkloadGenerator::new(config).take(1000).collect();
//! assert_eq!(txs.len(), 1000);
//! assert!(txs.iter().any(|tx| tx.is_coinbase()));
//! assert!(txs.iter().any(|tx| !tx.is_coinbase()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dist;
mod generator;

pub use config::{FlashCrowdEpisode, HotSpotConfig, SpamEpisode, WorkloadConfig};
pub use dist::DiscreteDist;
pub use generator::WorkloadGenerator;

/// Generates exactly `n` transactions from `config`.
///
/// Convenience wrapper over [`WorkloadGenerator`].
pub fn generate(config: WorkloadConfig, n: usize) -> Vec<optchain_utxo::Transaction> {
    WorkloadGenerator::new(config).take(n).collect()
}
