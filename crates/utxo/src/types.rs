//! Core value types of the UTXO model.

use std::fmt;

/// Identifier of a transaction.
///
/// In this reproduction transaction identifiers are dense sequence numbers
/// assigned in arrival order (the order transactions are appended to the
/// ledger). This mirrors the topological numbering the paper relies on: the
/// TaN network "can be sorted in a topological order, which exactly reflects
/// the order of appearance of transactions" (Section IV.A).
///
/// # Example
///
/// ```
/// use optchain_utxo::TxId;
///
/// let id = TxId(42);
/// assert_eq!(id.outpoint(1).txid, id);
/// assert_eq!(format!("{id}"), "tx#42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(pub u64);

impl TxId {
    /// Returns the [`OutPoint`] referencing output `vout` of this transaction.
    pub fn outpoint(self, vout: u32) -> OutPoint {
        OutPoint { txid: self, vout }
    }

    /// Returns the raw sequence number.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx#{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(raw: u64) -> Self {
        TxId(raw)
    }
}

/// Identifier of a wallet (an owner of transaction outputs).
///
/// Real Bitcoin locks outputs to script public keys; the workload generator
/// in this reproduction clusters outputs by wallet to recreate the
/// community structure of the real transaction graph, so ownership is a
/// plain numeric wallet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WalletId(pub u32);

impl fmt::Display for WalletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wallet#{}", self.0)
    }
}

/// A reference to a specific output of a specific transaction.
///
/// # Example
///
/// ```
/// use optchain_utxo::{OutPoint, TxId};
///
/// let op = OutPoint { txid: TxId(3), vout: 1 };
/// assert_eq!(op, TxId(3).outpoint(1));
/// assert_eq!(format!("{op}"), "tx#3:1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OutPoint {
    /// Transaction that produced the output.
    pub txid: TxId,
    /// Index of the output within that transaction.
    pub vout: u32,
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.vout)
    }
}

/// A transaction output: an amount of credits locked to a wallet.
///
/// # Example
///
/// ```
/// use optchain_utxo::{TxOutput, WalletId};
///
/// let out = TxOutput::new(1_000, WalletId(4));
/// assert_eq!(out.value, 1_000);
/// assert_eq!(out.owner, WalletId(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TxOutput {
    /// Amount of credits carried by the output (satoshi-like integer units).
    pub value: u64,
    /// Wallet the output is locked to.
    pub owner: WalletId,
}

impl TxOutput {
    /// Creates a new output of `value` credits locked to `owner`.
    pub fn new(value: u64, owner: WalletId) -> Self {
        TxOutput { value, owner }
    }
}

impl fmt::Display for TxOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.value, self.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_display_and_outpoint() {
        let id = TxId(7);
        assert_eq!(id.to_string(), "tx#7");
        assert_eq!(id.outpoint(2), OutPoint { txid: id, vout: 2 });
        assert_eq!(id.outpoint(2).to_string(), "tx#7:2");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn txid_from_u64() {
        assert_eq!(TxId::from(5u64), TxId(5));
    }

    #[test]
    fn txid_ordering_follows_sequence() {
        assert!(TxId(1) < TxId(2));
        assert!(TxId(100) > TxId(99));
    }

    #[test]
    fn output_display() {
        let out = TxOutput::new(12, WalletId(3));
        assert_eq!(out.to_string(), "12 -> wallet#3");
    }

    #[test]
    fn outpoint_hash_distinguishes_vout() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TxId(1).outpoint(0));
        set.insert(TxId(1).outpoint(1));
        assert_eq!(set.len(), 2);
    }
}
