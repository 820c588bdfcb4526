//! Transactions and the transaction builder.

use std::fmt;

use crate::{OutPoint, TxId, TxOutput, WalletId};

/// Average serialized size of a Bitcoin transaction assumed by the paper's
/// simulation ("The average size of a transaction is about 500 bytes",
/// Section V.A). Used as the base for the size model below.
pub const BASE_TX_BYTES: u32 = 122;
/// Serialized bytes attributed to each input in the size model.
pub const BYTES_PER_INPUT: u32 = 148;
/// Serialized bytes attributed to each output in the size model.
pub const BYTES_PER_OUTPUT: u32 = 34;

/// A UTXO-model transaction.
///
/// A transaction consumes the outputs referenced by `inputs` and produces
/// `outputs`. A transaction with no inputs is a *coinbase* transaction: it
/// mints credits (block rewards) out of thin air and is never cross-shard
/// (Section V.A of the paper).
///
/// # Example
///
/// ```
/// use optchain_utxo::{Transaction, TxId, TxOutput, WalletId};
///
/// let cb = Transaction::coinbase(TxId(0), 50, WalletId(1));
/// assert!(cb.is_coinbase());
///
/// let tx = Transaction::builder(TxId(1))
///     .input(TxId(0).outpoint(0))
///     .output(TxOutput::new(49, WalletId(2)))
///     .build();
/// assert_eq!(tx.inputs().len(), 1);
/// assert!(!tx.is_coinbase());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    id: TxId,
    inputs: Vec<OutPoint>,
    outputs: Vec<TxOutput>,
}

impl Transaction {
    /// Creates a transaction from parts.
    ///
    /// Prefer [`Transaction::builder`] for incremental construction. This
    /// constructor performs no ledger-level validation (that happens in
    /// [`crate::UtxoSet::apply`]), but the structural invariants (duplicate
    /// inputs) are still checked there.
    pub fn new(id: TxId, inputs: Vec<OutPoint>, outputs: Vec<TxOutput>) -> Self {
        Transaction {
            id,
            inputs,
            outputs,
        }
    }

    /// Creates a coinbase transaction minting `reward` credits to `miner`.
    pub fn coinbase(id: TxId, reward: u64, miner: WalletId) -> Self {
        Transaction {
            id,
            inputs: Vec::new(),
            outputs: vec![TxOutput::new(reward, miner)],
        }
    }

    /// Starts building a transaction with the given id.
    pub fn builder(id: TxId) -> TransactionBuilder {
        TransactionBuilder::new(id)
    }

    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The outputs this transaction spends.
    pub fn inputs(&self) -> &[OutPoint] {
        &self.inputs
    }

    /// The outputs this transaction creates.
    pub fn outputs(&self) -> &[TxOutput] {
        &self.outputs
    }

    /// `true` iff the transaction has no inputs (mints credits).
    pub fn is_coinbase(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Total value produced by the outputs.
    ///
    /// Returns `None` on arithmetic overflow.
    pub fn output_value(&self) -> Option<u64> {
        self.outputs
            .iter()
            .try_fold(0u64, |acc, o| acc.checked_add(o.value))
    }

    /// The distinct transactions whose outputs this transaction spends, in
    /// first-appearance order.
    ///
    /// This is the paper's `Nin(u)` — the *set* of input transactions of `u`
    /// (Section IV.B) — deduplicated even when several outputs of the same
    /// parent are consumed.
    pub fn input_txids(&self) -> Vec<TxId> {
        let mut seen = Vec::new();
        for op in &self.inputs {
            if !seen.contains(&op.txid) {
                seen.push(op.txid);
            }
        }
        seen
    }

    /// Serialized size in bytes under the linear size model
    /// (`BASE_TX_BYTES + inputs·BYTES_PER_INPUT + outputs·BYTES_PER_OUTPUT`),
    /// chosen so a typical 2-in/2-out transaction is ≈ 500 bytes as assumed
    /// by the paper's simulation configuration (Table III).
    pub fn size_bytes(&self) -> u32 {
        BASE_TX_BYTES
            + BYTES_PER_INPUT * self.inputs.len() as u32
            + BYTES_PER_OUTPUT * self.outputs.len() as u32
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} in, {} out{})",
            self.id,
            self.inputs.len(),
            self.outputs.len(),
            if self.is_coinbase() { ", coinbase" } else { "" }
        )
    }
}

/// Incremental builder for [`Transaction`].
///
/// # Example
///
/// ```
/// use optchain_utxo::{Transaction, TxId, TxOutput, WalletId};
///
/// let tx = Transaction::builder(TxId(10))
///     .input(TxId(4).outpoint(0))
///     .input(TxId(5).outpoint(2))
///     .output(TxOutput::new(70, WalletId(1)))
///     .build();
/// assert_eq!(tx.inputs().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TransactionBuilder {
    id: TxId,
    inputs: Vec<OutPoint>,
    outputs: Vec<TxOutput>,
}

impl TransactionBuilder {
    /// Starts a builder for a transaction with id `id`.
    pub fn new(id: TxId) -> Self {
        TransactionBuilder {
            id,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Adds an input spending `outpoint`.
    pub fn input(mut self, outpoint: OutPoint) -> Self {
        self.inputs.push(outpoint);
        self
    }

    /// Adds every outpoint from the iterator as an input.
    pub fn inputs<I: IntoIterator<Item = OutPoint>>(mut self, outpoints: I) -> Self {
        self.inputs.extend(outpoints);
        self
    }

    /// Adds an output.
    pub fn output(mut self, output: TxOutput) -> Self {
        self.outputs.push(output);
        self
    }

    /// Adds every output from the iterator.
    pub fn outputs<I: IntoIterator<Item = TxOutput>>(mut self, outputs: I) -> Self {
        self.outputs.extend(outputs);
        self
    }

    /// Finishes building the transaction.
    pub fn build(self) -> Transaction {
        Transaction {
            id: self.id,
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coinbase_has_no_inputs() {
        let cb = Transaction::coinbase(TxId(0), 50, WalletId(9));
        assert!(cb.is_coinbase());
        assert_eq!(cb.outputs().len(), 1);
        assert_eq!(cb.output_value(), Some(50));
    }

    #[test]
    fn builder_accumulates_inputs_and_outputs() {
        let tx = Transaction::builder(TxId(3))
            .inputs([TxId(0).outpoint(0), TxId(1).outpoint(0)])
            .outputs([
                TxOutput::new(10, WalletId(1)),
                TxOutput::new(5, WalletId(2)),
            ])
            .build();
        assert_eq!(tx.inputs().len(), 2);
        assert_eq!(tx.outputs().len(), 2);
        assert_eq!(tx.output_value(), Some(15));
        assert_eq!(tx.id(), TxId(3));
    }

    #[test]
    fn input_txids_deduplicates_parents() {
        let tx = Transaction::builder(TxId(5))
            .input(TxId(2).outpoint(0))
            .input(TxId(2).outpoint(1))
            .input(TxId(4).outpoint(0))
            .output(TxOutput::new(1, WalletId(0)))
            .build();
        assert_eq!(tx.input_txids(), vec![TxId(2), TxId(4)]);
    }

    #[test]
    fn typical_two_in_two_out_is_about_500_bytes() {
        let tx = Transaction::builder(TxId(1))
            .inputs([TxId(0).outpoint(0), TxId(0).outpoint(1)])
            .outputs([TxOutput::new(1, WalletId(0)), TxOutput::new(2, WalletId(1))])
            .build();
        let size = tx.size_bytes();
        assert!((400..=600).contains(&size), "size model off: {size}");
    }

    #[test]
    fn output_value_overflow_returns_none() {
        let tx = Transaction::builder(TxId(1))
            .output(TxOutput::new(u64::MAX, WalletId(0)))
            .output(TxOutput::new(1, WalletId(0)))
            .build();
        assert_eq!(tx.output_value(), None);
    }

    #[test]
    fn display_mentions_coinbase() {
        let cb = Transaction::coinbase(TxId(0), 50, WalletId(9));
        assert!(cb.to_string().contains("coinbase"));
    }
}
