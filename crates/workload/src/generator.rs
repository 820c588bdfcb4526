//! The streaming transaction generator.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use optchain_utxo::{OutPoint, Transaction, TxId, TxOutput, WalletId};

use crate::config::WorkloadConfig;
use crate::dist::{recency_index, ZipfTable};

/// Per-wallet generator state.
#[derive(Debug, Clone, Default)]
struct WalletState {
    /// Unspent outputs owned by the wallet, oldest first (approximately;
    /// removals use swap_remove so the tail stays the recent region).
    pool: Vec<(OutPoint, u64)>,
    /// Stable payment contacts (community structure).
    contacts: Vec<WalletId>,
    /// Position in the generator's `nonempty` list, or `usize::MAX`.
    nonempty_slot: usize,
}

/// A deterministic, infinite iterator of valid UTXO transactions.
///
/// The generator owns the full bookkeeping of who can spend what, so the
/// produced stream always replays cleanly into a ledger. It implements
/// [`Iterator`] and never terminates on its own — use [`Iterator::take`].
///
/// # Example
///
/// ```
/// use optchain_utxo::Ledger;
/// use optchain_workload::{WorkloadConfig, WorkloadGenerator};
///
/// let mut ledger = Ledger::new();
/// for tx in WorkloadGenerator::new(WorkloadConfig::small()).take(500) {
///     ledger.apply(tx)?; // a generated stream is always valid
/// }
/// assert_eq!(ledger.len(), 500);
/// # Ok::<(), optchain_utxo::UtxoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: ChaCha8Rng,
    zipf: ZipfTable,
    wallets: Vec<WalletState>,
    /// Wallets with nonempty pools, for O(1) fallback selection.
    nonempty: Vec<u32>,
    /// The outputs the transaction being built spends, with their
    /// values; reused so a transaction allocates only its own inputs
    /// and outputs.
    chosen: Vec<(OutPoint, u64)>,
    next_id: u64,
}

impl WorkloadGenerator {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`WorkloadConfig::validate`].
    pub fn new(config: WorkloadConfig) -> Self {
        config.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let n = config.n_wallets as usize;
        let zipf = ZipfTable::new(n, config.wallet_zipf);
        let mut wallets = vec![WalletState::default(); n];
        for (i, w) in wallets.iter_mut().enumerate() {
            w.nonempty_slot = usize::MAX;
            // Most contacts live in the wallet's neighborhood (id-space
            // communities: the families of related transactions that T2S
            // placement groups), while a quarter are Zipf-skewed hubs
            // (exchanges, pools) that keep payment mass circulating among
            // active wallets and tie communities together.
            w.contacts = (0..config.contacts_per_wallet)
                .map(|ci| {
                    if ci % 8 == 7 {
                        WalletId(zipf.sample(&mut rng) as u32)
                    } else {
                        let radius = 48i64.min(n as i64 / 2);
                        let offset = rng.gen_range(-radius..=radius);
                        let id = (i as i64 + offset).rem_euclid(n as i64);
                        WalletId(id as u32)
                    }
                })
                .filter(|c| c.0 as usize != i)
                .collect();
        }
        WorkloadGenerator {
            config,
            rng,
            zipf,
            wallets,
            nonempty: Vec::new(),
            chosen: Vec::new(),
            next_id: 0,
        }
    }

    /// The configuration this generator runs with.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Sequence number of the next transaction.
    pub fn next_tx_id(&self) -> TxId {
        TxId(self.next_id)
    }

    fn credit(&mut self, wallet: WalletId, outpoint: OutPoint, value: u64) {
        let w = &mut self.wallets[wallet.0 as usize];
        if w.pool.is_empty() && w.nonempty_slot == usize::MAX {
            w.nonempty_slot = self.nonempty.len();
            self.nonempty.push(wallet.0);
        }
        w.pool.push((outpoint, value));
    }

    fn debit(&mut self, wallet: WalletId, pool_idx: usize) -> (OutPoint, u64) {
        let w = &mut self.wallets[wallet.0 as usize];
        let entry = w.pool.swap_remove(pool_idx);
        if w.pool.is_empty() {
            // Remove from the nonempty list in O(1) (swap with last).
            let slot = w.nonempty_slot;
            w.nonempty_slot = usize::MAX;
            let last = self.nonempty.pop().expect("wallet was registered nonempty");
            if (last as usize) != wallet.0 as usize {
                self.nonempty[slot] = last;
                self.wallets[last as usize].nonempty_slot = slot;
            }
        }
        entry
    }

    /// Picks a wallet to act as sender: Zipf-skewed with retries, falling
    /// back to a uniformly random funded wallet.
    fn pick_sender(&mut self) -> Option<WalletId> {
        self.pick_sender_with(1)
    }

    /// Picks a sender preferring wallets holding at least `want` UTXOs, so
    /// the realized input count tracks the configured distribution instead
    /// of being truncated by thin pools. Falls back to the best-funded
    /// candidate seen, then to any funded wallet.
    fn pick_sender_with(&mut self, want: usize) -> Option<WalletId> {
        let mut best: Option<(usize, u32)> = None;
        for _ in 0..10 {
            let cand = self.zipf.sample(&mut self.rng) as u32;
            let len = self.wallets[cand as usize].pool.len();
            if len >= want {
                return Some(WalletId(cand));
            }
            if len > 0 && best.is_none_or(|(blen, _)| len > blen) {
                best = Some((len, cand));
            }
        }
        // A few extra draws among known-funded wallets.
        for _ in 0..6 {
            if self.nonempty.is_empty() {
                break;
            }
            let cand = self.nonempty[self.rng.gen_range(0..self.nonempty.len())];
            let len = self.wallets[cand as usize].pool.len();
            if len >= want {
                return Some(WalletId(cand));
            }
            if best.is_none_or(|(blen, _)| len > blen) {
                best = Some((len, cand));
            }
        }
        best.map(|(_, cand)| WalletId(cand))
    }

    fn pick_recipient(&mut self, sender: WalletId) -> WalletId {
        let contacts = &self.wallets[sender.0 as usize].contacts;
        if !contacts.is_empty() && self.rng.gen_bool(self.config.p_contact_payment) {
            contacts[self.rng.gen_range(0..contacts.len())]
        } else {
            // Strangers are mostly neighbors too (local commerce), with a
            // Zipf hub (exchange) once in a while.
            if self.rng.gen_bool(0.3) {
                WalletId(self.zipf.sample(&mut self.rng) as u32)
            } else {
                let n = self.config.n_wallets as i64;
                let radius = 192i64.min(n / 2);
                let offset = self.rng.gen_range(-radius..=radius);
                WalletId((sender.0 as i64 + offset).rem_euclid(n) as u32)
            }
        }
    }

    fn emit_coinbase(&mut self) -> Transaction {
        let miner = WalletId(self.zipf.sample(&mut self.rng) as u32);
        let id = TxId(self.next_id);
        self.next_id += 1;
        let tx = Transaction::coinbase(id, self.config.coinbase_reward, miner);
        self.credit(miner, id.outpoint(0), self.config.coinbase_reward);
        tx
    }

    fn active_spam(&self) -> Option<&crate::SpamEpisode> {
        let at = self.next_id as usize;
        self.config
            .spam
            .iter()
            .find(|ep| at >= ep.start && at < ep.start + ep.len)
    }

    /// Builds a sweep transaction consuming up to `sweep_inputs` outputs
    /// gathered across many wallets and consolidating them into one
    /// output — the pool-cleanup transactions behind the Fig 2c bump.
    fn emit_sweep(&mut self, sweep_inputs: usize) -> Transaction {
        let sweeper = self.pick_sender().expect("sweep requires funds");
        let mut chosen = std::mem::take(&mut self.chosen);
        chosen.clear();
        // Drain the sweeper first, then hop across random funded wallets
        // until the target input count is reached or funds run dry.
        let mut donor = sweeper;
        let mut hops = 0;
        while chosen.len() < sweep_inputs && hops < 4 * sweep_inputs {
            hops += 1;
            if self.wallets[donor.0 as usize].pool.is_empty() {
                if self.nonempty.is_empty() {
                    break;
                }
                let idx = self.rng.gen_range(0..self.nonempty.len());
                donor = WalletId(self.nonempty[idx]);
                continue;
            }
            let len = self.wallets[donor.0 as usize].pool.len();
            let idx = recency_index(&mut self.rng, len, 0.0);
            chosen.push(self.debit(donor, idx));
        }
        if chosen.is_empty() {
            // Degenerate economy: fall back to whatever single UTXO exists.
            let len = self.wallets[sweeper.0 as usize].pool.len();
            let idx = recency_index(&mut self.rng, len.max(1), 0.0);
            chosen.push(self.debit(sweeper, idx));
        }
        debug_assert!(!chosen.is_empty());
        let consumed: u64 = chosen.iter().map(|(_, v)| v).sum();
        let fee = consumed * self.config.fee_permille / 1000;
        let value = (consumed - fee).max(1).min(consumed);
        let id = TxId(self.next_id);
        self.next_id += 1;
        let inputs = chosen.iter().map(|(op, _)| *op).collect();
        self.chosen = chosen;
        self.credit(sweeper, id.outpoint(0), value);
        Transaction::new(id, inputs, vec![TxOutput::new(value, sweeper)])
    }

    /// The hot-spot/flash-crowd parameters in effect for the next
    /// transaction, if any (an active flash window wins over the
    /// sustained hot-spot).
    fn active_hotspot(&self) -> Option<(u32, f64)> {
        let at = self.next_id as usize;
        if let Some(ep) = self
            .config
            .flash
            .iter()
            .find(|ep| at >= ep.start && at < ep.start + ep.len)
        {
            return Some((ep.hubs, ep.p_hot));
        }
        self.config
            .hotspot
            .as_ref()
            .filter(|h| at >= h.start)
            .map(|h| (h.hubs, h.p_hot))
    }

    /// Emits one unit of hub traffic: either a hub fans value out
    /// (spending its own family, growing the chain T2S keeps on one
    /// shard) or the crowd pays in (a funded wallet sending to the hub,
    /// feeding the hub's pool so the fan-out keeps going).
    fn emit_hot(&mut self, hubs: u32) -> Transaction {
        let hub = WalletId(self.rng.gen_range(0..hubs));
        let want_inputs = self.config.inputs_dist.sample(&mut self.rng);
        let hub_funded = !self.wallets[hub.0 as usize].pool.is_empty();
        if hub_funded && self.rng.gen_bool(0.5) {
            self.emit_regular_to(hub, want_inputs, None)
        } else {
            match self.pick_sender_with(want_inputs) {
                Some(sender) => self.emit_regular_to(sender, want_inputs, Some(hub)),
                None => self.emit_coinbase(),
            }
        }
    }

    fn emit_regular(&mut self, sender: WalletId, want_inputs: usize) -> Transaction {
        self.emit_regular_to(sender, want_inputs, None)
    }

    /// [`WorkloadGenerator::emit_regular`] with an optional forced
    /// payee: when `pay_to` is set every non-change output goes to that
    /// wallet (hub traffic) instead of a sampled recipient. The forced
    /// path skips the recipient RNG draws, but it is only reachable
    /// from hot-spot traffic — configs without a hot-spot consume the
    /// exact RNG stream earlier releases did.
    fn emit_regular_to(
        &mut self,
        sender: WalletId,
        want_inputs: usize,
        pay_to: Option<WalletId>,
    ) -> Transaction {
        let mut chosen = std::mem::take(&mut self.chosen);
        chosen.clear();
        for _ in 0..want_inputs {
            let len = self.wallets[sender.0 as usize].pool.len();
            if len == 0 {
                break;
            }
            // Prefer outputs from parents not already spent by this
            // transaction: TaN collapses parallel edges, so spending two
            // outputs of one parent adds no edge. A few biased retries
            // keep the realized distinct-parent count near the configured
            // input distribution (the paper's 2.3 average degree).
            let mut idx = recency_index(&mut self.rng, len, self.config.recency_bias);
            for _ in 0..3 {
                let txid = self.wallets[sender.0 as usize].pool[idx].0.txid;
                if !chosen.iter().any(|(op, _)| op.txid == txid) {
                    break;
                }
                idx = recency_index(&mut self.rng, len, self.config.recency_bias / 4.0);
            }
            chosen.push(self.debit(sender, idx));
        }
        // If the sender's pool ran dry before the sampled input count was
        // reached, co-spend from contact wallets (multi-entity inputs:
        // CoinJoins, exchange sweeps). Contacts are in the sender's
        // community, so the locality T2S exploits is preserved.
        let mut co_spenders = 0;
        while chosen.len() < want_inputs && co_spenders < 2 {
            co_spenders += 1;
            let co = self.pick_recipient(sender);
            while chosen.len() < want_inputs {
                let len = self.wallets[co.0 as usize].pool.len();
                if len == 0 {
                    break;
                }
                let idx = recency_index(&mut self.rng, len, self.config.recency_bias);
                chosen.push(self.debit(co, idx));
            }
        }
        debug_assert!(!chosen.is_empty(), "pick_sender guarantees a funded wallet");
        let consumed: u64 = chosen.iter().map(|(_, v)| v).sum();
        let fee = consumed * self.config.fee_permille / 1000;
        let budget = consumed - fee;
        let inputs = chosen.iter().map(|(op, _)| *op).collect();
        self.chosen = chosen;

        let self_transfer = self.rng.gen_bool(self.config.p_self_transfer);
        let want_outputs = self.config.outputs_dist.sample(&mut self.rng);
        // Every output needs at least 1 credit.
        let n_outputs = want_outputs.min(budget.max(1) as usize).max(1);

        let id = TxId(self.next_id);
        self.next_id += 1;
        let mut outputs = Vec::with_capacity(n_outputs);
        let mut remaining = budget.max(1).min(consumed);
        for i in 0..n_outputs {
            let slots_left = (n_outputs - i) as u64;
            let value = if slots_left == 1 {
                remaining
            } else {
                // Leave at least 1 credit for each remaining slot.
                let max_here = remaining - (slots_left - 1);
                if max_here <= 1 {
                    1
                } else {
                    // Payments skew large-first: sample in [ceil(max/4), max].
                    self.rng
                        .gen_range(max_here.div_ceil(4).min(max_here)..=max_here)
                }
            };
            remaining -= value;
            let owner = if self_transfer || i + 1 == n_outputs {
                sender // change (or pure self-transfer)
            } else {
                match pay_to {
                    Some(hub) => hub,
                    None => self.pick_recipient(sender),
                }
            };
            outputs.push(TxOutput::new(value, owner));
        }
        for (vout, out) in outputs.iter().enumerate() {
            self.credit(out.owner, id.outpoint(vout as u32), out.value);
        }
        Transaction::new(id, inputs, outputs)
    }

    /// Generates the next transaction.
    pub fn next_tx(&mut self) -> Transaction {
        let at = self.next_id as usize;
        // Bootstrap phase and block schedule force coinbase.
        if at < self.config.bootstrap_coinbases
            || at.is_multiple_of(self.config.coinbase_interval)
            || self.nonempty.is_empty()
        {
            return self.emit_coinbase();
        }
        if let Some(ep) = self.active_spam() {
            let sweep_inputs = ep.sweep_inputs;
            let p = ep.sweep_probability;
            if self.rng.gen_bool(p) {
                return self.emit_sweep(sweep_inputs);
            }
        }
        if let Some((hubs, p_hot)) = self.active_hotspot() {
            if self.rng.gen_bool(p_hot) {
                return self.emit_hot(hubs);
            }
        }
        let want_inputs = self.config.inputs_dist.sample(&mut self.rng);
        match self.pick_sender_with(want_inputs) {
            Some(sender) => self.emit_regular(sender, want_inputs),
            None => self.emit_coinbase(),
        }
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Transaction;

    fn next(&mut self) -> Option<Transaction> {
        Some(self.next_tx())
    }

    /// Endless, like [`std::iter::repeat`]: `take(n).collect()` then
    /// allocates its `n` slots once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpamEpisode;
    use optchain_utxo::Ledger;

    fn run(config: WorkloadConfig, n: usize) -> Vec<Transaction> {
        WorkloadGenerator::new(config).take(n).collect()
    }

    #[test]
    fn stream_is_valid_utxo_history() {
        let txs = run(WorkloadConfig::small().with_seed(1), 2_000);
        let mut ledger = Ledger::new();
        for tx in txs {
            ledger.apply(tx).expect("generated stream must be valid");
        }
        assert_eq!(ledger.len(), 2_000);
    }

    #[test]
    fn same_seed_same_stream() {
        let a = run(WorkloadConfig::small().with_seed(5), 500);
        let b = run(WorkloadConfig::small().with_seed(5), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_stream() {
        let a = run(WorkloadConfig::small().with_seed(5), 500);
        let b = run(WorkloadConfig::small().with_seed(6), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn bootstrap_phase_is_coinbase() {
        let config = WorkloadConfig::small().with_seed(2);
        let boot = config.bootstrap_coinbases;
        let txs = run(config, boot + 10);
        assert!(txs[..boot].iter().all(|t| t.is_coinbase()));
        assert!(txs[boot..].iter().any(|t| !t.is_coinbase()));
    }

    #[test]
    fn coinbase_schedule_continues_after_bootstrap() {
        let config = WorkloadConfig::small().with_seed(3);
        let interval = config.coinbase_interval;
        let txs = run(config, interval * 3 + 1);
        assert!(txs[interval * 2].is_coinbase());
        assert!(txs[interval * 3].is_coinbase());
    }

    #[test]
    fn ids_are_dense_sequence_numbers() {
        let txs = run(WorkloadConfig::small(), 300);
        for (i, tx) in txs.iter().enumerate() {
            assert_eq!(tx.id(), TxId(i as u64));
        }
    }

    #[test]
    fn spam_episode_produces_high_input_txs() {
        // Constant-1 regular inputs isolate the episode's effect; outputs
        // outnumber inputs 3:1 so the sweeps have supply to consume.
        let mut config = WorkloadConfig::small().with_seed(4).with_spam(SpamEpisode {
            start: 1_500,
            len: 100,
            sweep_inputs: 25,
            sweep_probability: 0.4,
        });
        config.inputs_dist = crate::DiscreteDist::constant(1);
        let txs = run(config, 1_700);
        let mean = |slice: &[Transaction]| {
            slice.iter().map(|t| t.inputs().len()).sum::<usize>() as f64 / slice.len() as f64
        };
        let window = mean(&txs[1_500..1_600]);
        let before = mean(&txs[500..1_500]);
        assert!(
            window > 2.0 * before,
            "sweep window should lift mean inputs: window {window:.1} vs before {before:.1}"
        );
    }

    #[test]
    fn hotspot_stream_is_deterministic_and_valid() {
        let config = || {
            WorkloadConfig::small()
                .with_seed(21)
                .with_hotspot(crate::HotSpotConfig {
                    hubs: 4,
                    p_hot: 0.6,
                    start: 500,
                })
        };
        let a = run(config(), 2_000);
        let b = run(config(), 2_000);
        assert_eq!(a, b, "same seed + same hot-spot must replay identically");
        let mut ledger = Ledger::new();
        for tx in a {
            ledger.apply(tx).expect("hot-spot stream must stay valid");
        }
    }

    #[test]
    fn hotspot_concentrates_traffic_on_hubs() {
        let hubs = 4u32;
        let config = WorkloadConfig::small()
            .with_seed(22)
            .with_hotspot(crate::HotSpotConfig {
                hubs,
                p_hot: 0.7,
                start: 500,
            });
        let txs = run(config, 3_000);
        // Count transactions paying a hub wallet after the hot-spot
        // starts vs. before: hub traffic should dominate the tail.
        let pays_hub = |tx: &Transaction| tx.outputs().iter().any(|out| out.owner.0 < hubs);
        let before = txs[..500].iter().filter(|t| pays_hub(t)).count() as f64 / 500.0;
        let after = txs[500..].iter().filter(|t| pays_hub(t)).count() as f64 / 2_500.0;
        // Low wallet ids are already the Zipf-heaviest, so the baseline
        // is nonzero — the hot-spot should still roughly double it.
        assert!(
            after > 1.5 * before && after > 0.5,
            "hub traffic should jump at the hot-spot: before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn flash_crowd_is_bounded() {
        let hubs = 2u32;
        let config =
            WorkloadConfig::small()
                .with_seed(23)
                .with_flash_crowd(crate::FlashCrowdEpisode {
                    start: 1_000,
                    len: 500,
                    hubs,
                    p_hot: 0.8,
                });
        let txs = run(config, 3_000);
        let hub_share = |slice: &[Transaction]| {
            slice
                .iter()
                .filter(|tx| tx.outputs().iter().any(|out| out.owner.0 < hubs))
                .count() as f64
                / slice.len() as f64
        };
        let inside = hub_share(&txs[1_000..1_500]);
        let after = hub_share(&txs[2_000..3_000]);
        assert!(
            inside > 0.4,
            "flash window should be hub-dominated: {inside:.3}"
        );
        assert!(
            inside > 3.0 * after.max(0.02),
            "hub traffic should subside after the window: inside {inside:.3}, after {after:.3}"
        );
    }

    /// FNV-1a over every transaction's id, inputs and outputs.
    fn fingerprint(config: WorkloadConfig, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for tx in WorkloadGenerator::new(config).take(n) {
            eat(tx.id().0);
            eat(tx.inputs().len() as u64);
            for op in tx.inputs() {
                eat(op.txid.0);
                eat(u64::from(op.vout));
            }
            eat(tx.outputs().len() as u64);
            for out in tx.outputs() {
                eat(out.value);
                eat(u64::from(out.owner.0));
            }
        }
        h
    }

    #[test]
    fn no_hotspot_stream_matches_earlier_releases() {
        // The hot-spot path must not consume RNG draws while disabled,
        // and the samplers must draw what they always drew: a config
        // without a hot-spot generates the exact stream it always did.
        // Pinned at commit 5480e5f, before the guided sampler.
        assert_eq!(
            fingerprint(WorkloadConfig::small().with_seed(5), 500),
            0xb4b0_32e7_1456_f77b
        );
        assert_eq!(
            fingerprint(WorkloadConfig::bitcoin_like().with_seed(0xB17C04), 100_000),
            0x903b_0ab3_68c9_af0b
        );
    }

    #[test]
    fn hotspot_feedback_stream_matches_earlier_releases() {
        // The benchmark's `hotspot_feedback` stream at its smoke size:
        // hot-spot from 10 %, sweeps over 50-60 %, flash crowd over
        // 75-80 %. Pinned at commit 5480e5f, before the guided sampler.
        let n = 100_000;
        let at = |share: f64| (n as f64 * share) as usize;
        let config = WorkloadConfig::bitcoin_like()
            .with_seed(0xB17C04)
            .with_hotspot(crate::HotSpotConfig {
                hubs: 4,
                p_hot: 0.5,
                start: at(0.10),
            })
            .with_spam(SpamEpisode {
                start: at(0.50),
                len: at(0.10),
                sweep_inputs: 40,
                sweep_probability: 0.3,
            })
            .with_flash_crowd(crate::FlashCrowdEpisode {
                start: at(0.75),
                len: at(0.05),
                hubs: 2,
                p_hot: 0.8,
            });
        assert_eq!(fingerprint(config, n), 0xb3e2_5b96_1850_9cee);
    }

    #[test]
    fn fees_drain_value() {
        let txs = run(WorkloadConfig::small().with_seed(7), 2_000);
        let mut ledger = Ledger::new();
        let mut minted = 0u64;
        for tx in txs {
            if tx.is_coinbase() {
                minted += tx.output_value().unwrap();
            }
            ledger.apply(tx).unwrap();
        }
        let held = ledger.utxos().total_value().unwrap();
        assert!(held <= minted);
        assert!(held > 0);
    }

    #[test]
    fn average_tan_degree_near_paper() {
        use optchain_tan::TanGraph;
        let txs = run(WorkloadConfig::bitcoin_like().with_seed(11), 30_000);
        let g = TanGraph::from_transactions(txs.iter());
        let avg = g.edge_count() as f64 / g.len() as f64;
        assert!(
            (1.2..=3.0).contains(&avg),
            "average TaN degree {avg} far from the paper's 2.3"
        );
    }

    #[test]
    fn wallet_locality_exists() {
        // A majority of non-coinbase txs should spend outputs owned by a
        // single wallet (the sender) — the community structure T2S needs.
        let config = WorkloadConfig::small().with_seed(13);
        let txs = run(config, 3_000);
        let mut owners: std::collections::HashMap<OutPoint, WalletId> =
            std::collections::HashMap::new();
        let mut single = 0usize;
        let mut multi = 0usize;
        for tx in &txs {
            let senders: std::collections::HashSet<_> =
                tx.inputs().iter().map(|op| owners[op]).collect();
            match senders.len() {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
            for (vout, out) in tx.outputs().iter().enumerate() {
                owners.insert(tx.id().outpoint(vout as u32), out.owner);
            }
        }
        assert!(single > multi * 5, "single {single}, multi {multi}");
    }
}
