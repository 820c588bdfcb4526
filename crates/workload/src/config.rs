//! Workload configuration.

use crate::DiscreteDist;

/// A spam-attack episode: a window of the stream dominated by many-input
/// sweep transactions.
///
/// Section IV.A of the paper attributes the second average-degree bump in
/// Fig 2c to the 2015 Bitcoin flooding attack, during which "mining pools
/// create a lot of transactions with high degree to clean up 'trash'
/// transactions". An episode makes a fraction of transactions sweep many
/// dust outputs at once.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamEpisode {
    /// Index of the first transaction of the episode.
    pub start: usize,
    /// Number of transactions the episode lasts.
    pub len: usize,
    /// Number of UTXOs each sweep transaction consumes (capped by
    /// availability).
    pub sweep_inputs: usize,
    /// Probability that a transaction inside the window is a sweep.
    pub sweep_probability: f64,
}

/// A sustained hot-spot: from [`HotSpotConfig::start`] onward, a slice
/// of the stream concentrates on a few **hub wallets** — the hubs fan
/// payments out and the crowd pays back in, so the hubs' transaction
/// families (and with them T2S placement mass) pile onto whichever
/// shard hosts the family. This is the skew a static placement cannot
/// escape and the rebalancer exists to drain.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotConfig {
    /// Number of hub wallets (ids `0..hubs`).
    pub hubs: u32,
    /// Probability a post-`start` transaction is hub traffic.
    pub p_hot: f64,
    /// Index of the first transaction affected.
    pub start: usize,
}

/// A flash crowd: a bounded window of hub-concentrated traffic (a mint
/// drop, an exchange run) — the episodic version of [`HotSpotConfig`].
/// While a window is active it takes precedence over a sustained
/// hot-spot.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowdEpisode {
    /// Index of the first transaction of the episode.
    pub start: usize,
    /// Number of transactions the episode lasts.
    pub len: usize,
    /// Number of hub wallets (ids `0..hubs`).
    pub hubs: u32,
    /// Probability a transaction inside the window is hub traffic.
    pub p_hot: f64,
}

/// Configuration of the synthetic Bitcoin-like workload.
///
/// Construct via [`WorkloadConfig::bitcoin_like`] (paper-calibrated
/// defaults) or [`WorkloadConfig::small`] (fast tests), then customize
/// with the `with_*` builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of wallets in the economy.
    pub n_wallets: u32,
    /// One coinbase transaction is injected every `coinbase_interval`
    /// transactions — the block-schedule proxy.
    pub coinbase_interval: usize,
    /// Credits minted by each coinbase.
    pub coinbase_reward: u64,
    /// Number of initial transactions that are all coinbase, seeding the
    /// economy (early Bitcoin: the paper notes 99.1% of the first 10k
    /// blocks' transactions are coinbase).
    pub bootstrap_coinbases: usize,
    /// Distribution of input counts for regular transactions.
    pub inputs_dist: DiscreteDist,
    /// Distribution of output counts for regular transactions.
    pub outputs_dist: DiscreteDist,
    /// Size of each wallet's stable contact list.
    pub contacts_per_wallet: usize,
    /// Probability a payment goes to a contact (vs. a random wallet).
    pub p_contact_payment: f64,
    /// Probability a transaction is an internal transfer whose outputs all
    /// return to the sender (self-chains: consolidations, change shuffles).
    pub p_self_transfer: f64,
    /// Exponential recency bias when selecting UTXOs to spend; `0` means
    /// uniform over the wallet's pool.
    pub recency_bias: f64,
    /// Zipf exponent of wallet activity (how skewed spending is).
    pub wallet_zipf: f64,
    /// Fee charged per regular transaction, in 1/1000 of consumed value.
    pub fee_permille: u64,
    /// Spam-attack episodes.
    pub spam: Vec<SpamEpisode>,
    /// Sustained hub-concentration (`None` = the default economy). No
    /// RNG draw is spent on this while absent, so streams without a
    /// hot-spot are byte-identical to earlier releases.
    pub hotspot: Option<HotSpotConfig>,
    /// Flash-crowd episodes (active windows take precedence over
    /// `hotspot`).
    pub flash: Vec<FlashCrowdEpisode>,
    /// RNG seed; equal seeds give byte-identical streams.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Paper-calibrated defaults: ≈2.3 average TaN degree, strong wallet
    /// locality, 2000-tx block proxy.
    pub fn bitcoin_like() -> Self {
        WorkloadConfig {
            n_wallets: 20_000,
            coinbase_interval: 2_000,
            coinbase_reward: 50_000_000,
            bootstrap_coinbases: 500,
            inputs_dist: DiscreteDist::bitcoin_inputs(),
            outputs_dist: DiscreteDist::bitcoin_outputs(),
            contacts_per_wallet: 8,
            p_contact_payment: 0.8,
            p_self_transfer: 0.25,
            recency_bias: 0.25,
            wallet_zipf: 0.9,
            fee_permille: 2,
            spam: Vec::new(),
            hotspot: None,
            flash: Vec::new(),
            seed: 0xB17C04,
        }
    }

    /// A small, fast configuration for unit tests and doc examples.
    pub fn small() -> Self {
        WorkloadConfig {
            n_wallets: 200,
            coinbase_interval: 100,
            bootstrap_coinbases: 40,
            ..Self::bitcoin_like()
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of wallets.
    pub fn with_wallets(mut self, n_wallets: u32) -> Self {
        self.n_wallets = n_wallets;
        self
    }

    /// Adds a spam episode.
    pub fn with_spam(mut self, episode: SpamEpisode) -> Self {
        self.spam.push(episode);
        self
    }

    /// Enables a sustained hot-spot.
    pub fn with_hotspot(mut self, hotspot: HotSpotConfig) -> Self {
        self.hotspot = Some(hotspot);
        self
    }

    /// Adds a flash-crowd episode.
    pub fn with_flash_crowd(mut self, episode: FlashCrowdEpisode) -> Self {
        self.flash.push(episode);
        self
    }

    /// Sets the wallet-activity Zipf exponent.
    pub fn with_wallet_zipf(mut self, s: f64) -> Self {
        self.wallet_zipf = s;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on out-of-range values; the
    /// generator calls this once at construction.
    pub fn validate(&self) {
        assert!(self.n_wallets > 0, "n_wallets must be positive");
        assert!(
            self.coinbase_interval > 0,
            "coinbase_interval must be positive"
        );
        assert!(self.coinbase_reward > 0, "coinbase_reward must be positive");
        assert!(
            (0.0..=1.0).contains(&self.p_contact_payment),
            "p_contact_payment must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_self_transfer),
            "p_self_transfer must be a probability"
        );
        assert!(self.fee_permille <= 1000, "fee_permille must be <= 1000");
        for ep in &self.spam {
            assert!(ep.len > 0, "spam episode must have positive length");
            assert!(
                (0.0..=1.0).contains(&ep.sweep_probability),
                "sweep_probability must be a probability"
            );
        }
        let check_hubs = |hubs: u32, p_hot: f64| {
            assert!(hubs > 0, "hub count must be positive");
            assert!(
                hubs <= self.n_wallets,
                "hub count must not exceed n_wallets"
            );
            assert!((0.0..=1.0).contains(&p_hot), "p_hot must be a probability");
        };
        if let Some(h) = &self.hotspot {
            check_hubs(h.hubs, h.p_hot);
        }
        for ep in &self.flash {
            assert!(ep.len > 0, "flash-crowd episode must have positive length");
            check_hubs(ep.hubs, ep.p_hot);
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::bitcoin_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        WorkloadConfig::bitcoin_like().validate();
        WorkloadConfig::small().validate();
    }

    #[test]
    fn builder_methods_apply() {
        let c = WorkloadConfig::small()
            .with_seed(9)
            .with_wallets(11)
            .with_wallet_zipf(1.2)
            .with_spam(SpamEpisode {
                start: 10,
                len: 5,
                sweep_inputs: 20,
                sweep_probability: 0.5,
            });
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_wallets, 11);
        assert_eq!(c.wallet_zipf, 1.2);
        assert_eq!(c.spam.len(), 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "n_wallets must be positive")]
    fn zero_wallets_rejected() {
        WorkloadConfig::small().with_wallets(0).validate();
    }

    #[test]
    #[should_panic(expected = "sweep_probability")]
    fn bad_spam_probability_rejected() {
        WorkloadConfig::small()
            .with_spam(SpamEpisode {
                start: 0,
                len: 1,
                sweep_inputs: 1,
                sweep_probability: 2.0,
            })
            .validate();
    }
}
