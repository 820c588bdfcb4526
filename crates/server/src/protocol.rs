//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one **frame**: a 4-byte little-endian payload
//! length, then the payload — one opcode byte followed by the
//! fixed-layout little-endian body. The length prefix never includes
//! itself, and a frame larger than the connection's advertised
//! `max_frame_bytes` is rejected before the payload is read
//! ([`RejectReason::TooLarge`]).
//!
//! Decoding is **total**: any byte sequence decodes to either a typed
//! message or a typed [`DecodeError`] — never a panic, and (because
//! the length prefix bounds every read) never a hang on trailing
//! garbage. `protocol_fuzz.rs` drives the decoder with random and
//! mutated frames to pin this.
//!
//! The protocol is deliberately request/response over one ordered
//! stream: the server replies to every request exactly once (ack,
//! batch ack, rejection, query result, or metrics text), in the order
//! it finished them — which is admission-queue order, not necessarily
//! request order. Clients correlate by `req_id`.
//!
//! A transaction id the placement graph still holds is acked with its
//! current shard, however often it is submitted: placement is
//! idempotent per id, so a retry needs no reject reason. An id the
//! graph has evicted (under a retention window) is placed afresh.

use std::io::{self, Read, Write};

use optchain_utxo::TxId;

/// Default cap on a frame's payload size (1 MiB). At 8 bytes per
/// input id this admits batches of ~100k inputs — far beyond what a
/// sane client sends, small enough that a hostile length prefix
/// cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Absolute ceiling on `max_frame_bytes` (64 MiB): the decoder
/// allocates up to one frame, so the cap must stay allocation-sane
/// even when a builder raises the default.
pub const MAX_FRAME_BYTES_CEILING: u32 = 64 << 20;

const OP_SUBMIT: u8 = 0x01;
const OP_SUBMIT_BATCH: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_METRICS: u8 = 0x04;

const OP_HELLO: u8 = 0x80;
const OP_ACK: u8 = 0x81;
const OP_ACK_BATCH: u8 = 0x82;
const OP_REJECT: u8 = 0x83;
const OP_QUERY_RESULT: u8 = 0x84;
const OP_METRICS_TEXT: u8 = 0x85;

/// Why the server refused a request. Shedding is always **explicit**:
/// every refused request gets exactly one `Reject` carrying one of
/// these — never a silent drop. A resubmitted id is not refused (see
/// the [module docs](self)); wire byte 5, once a duplicate refusal,
/// is retired and decodes to no reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RejectReason {
    /// The admission queue is at capacity; resubmit later (mempool
    /// overload shedding).
    QueueFull = 1,
    /// The frame exceeded the connection's `max_frame_bytes`. The
    /// server closes the connection after sending this — the
    /// oversized payload is unread, so the stream cannot be resynced.
    TooLarge = 2,
    /// The server is draining for shutdown; already-admitted requests
    /// are still served, new ones are refused.
    Shutdown = 3,
    /// The frame decoded to garbage (unknown opcode, truncated body,
    /// trailing bytes). The server closes the connection after
    /// sending this.
    Malformed = 4,
    /// Placing failed on the node (a journal write error): none of the
    /// request's placements was acked, and the node answers every
    /// later request this way until it is restarted, which recovers
    /// what its journal holds.
    Failed = 6,
}

impl RejectReason {
    /// The wire byte → reason, if valid.
    pub fn from_u8(byte: u8) -> Option<RejectReason> {
        match byte {
            1 => Some(RejectReason::QueueFull),
            2 => Some(RejectReason::TooLarge),
            3 => Some(RejectReason::Shutdown),
            4 => Some(RejectReason::Malformed),
            6 => Some(RejectReason::Failed),
            _ => None,
        }
    }

    /// Stable lowercase label (metrics exposition, error messages).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TooLarge => "too_large",
            RejectReason::Shutdown => "shutdown",
            RejectReason::Malformed => "malformed",
            RejectReason::Failed => "failed",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One transaction inside a submit request: its id and the distinct
/// ids of the transactions it spends from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTx {
    /// The transaction id being placed.
    pub txid: TxId,
    /// Parent transaction ids (the TaN edges), first-appearance order.
    pub inputs: Vec<TxId>,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Place one transaction.
    Submit {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Admission priority (higher is served first).
        fee: u64,
        /// The transaction to place.
        tx: WireTx,
    },
    /// Place a batch of transactions as one admission unit: admitted
    /// or rejected atomically, answered by one [`Response::AckBatch`]
    /// (or one [`Response::Reject`] covering the whole batch). An id
    /// repeated in the batch, or one placed before, is acked with the
    /// one shard it holds.
    SubmitBatch {
        /// Client-chosen correlation id for the whole batch.
        req_id: u64,
        /// Admission priority of the batch.
        fee: u64,
        /// The transactions, placed in order.
        txs: Vec<WireTx>,
    },
    /// Look up the shard of a previously placed transaction.
    Query {
        /// Client-chosen correlation id.
        req_id: u64,
        /// The transaction id to look up.
        txid: TxId,
    },
    /// Fetch the text metrics exposition (`/metrics`-style).
    Metrics {
        /// Client-chosen correlation id.
        req_id: u64,
    },
}

impl Request {
    /// The correlation id the response will carry.
    pub fn req_id(&self) -> u64 {
        match self {
            Request::Submit { req_id, .. }
            | Request::SubmitBatch { req_id, .. }
            | Request::Query { req_id, .. }
            | Request::Metrics { req_id } => *req_id,
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Sent once, immediately after accept: the connection's flow
    /// control and sizing contract.
    Hello {
        /// How many requests may be in flight (sent but unanswered) on
        /// this connection. The server enforces it by pausing reads —
        /// a client exceeding the window stalls in TCP, it is not
        /// disconnected.
        credit_window: u32,
        /// Largest accepted frame payload, in bytes.
        max_frame_bytes: u32,
        /// Number of shards the node places over.
        shards: u32,
    },
    /// A single submit was placed.
    Ack {
        /// Correlation id of the submit.
        req_id: u64,
        /// The shard the transaction was placed into.
        shard: u32,
    },
    /// A batch was placed; `shards[i]` answers `txs[i]`.
    AckBatch {
        /// Correlation id of the batch.
        req_id: u64,
        /// Per-transaction shard assignments, in batch order.
        shards: Vec<u32>,
    },
    /// A request was refused, with the reason.
    Reject {
        /// Correlation id of the refused request (0 when the request
        /// could not be parsed far enough to learn it).
        req_id: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// Answer to a [`Request::Query`].
    QueryResult {
        /// Correlation id of the query.
        req_id: u64,
        /// The shard, or `None` if the id is unknown (never placed, or
        /// aged out under the retention policy).
        shard: Option<u32>,
    },
    /// Answer to a [`Request::Metrics`].
    MetricsText {
        /// Correlation id of the request.
        req_id: u64,
        /// The exposition body.
        text: String,
    },
}

/// Why a payload failed to decode. Every variant is a protocol error
/// the server answers with [`RejectReason::Malformed`] (or
/// [`RejectReason::TooLarge`] for [`DecodeError::FrameTooLarge`])
/// before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload was empty or ended inside a fixed-layout field.
    Truncated,
    /// The first payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// Bytes remained after a complete message — the frame length and
    /// the message body disagree.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A count field promises more elements than the remaining payload
    /// can hold (a hostile count that would balloon an allocation).
    CountOverflow {
        /// The promised element count.
        count: u64,
    },
    /// A declared frame length exceeds the connection's cap.
    FrameTooLarge {
        /// The declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// A reject frame carried an unknown reason byte.
    UnknownReason(u8),
    /// A metrics body was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            DecodeError::CountOverflow { count } => {
                write!(f, "count field {count} exceeds the remaining payload")
            }
            DecodeError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            DecodeError::UnknownReason(b) => write!(f, "unknown reject reason {b}"),
            DecodeError::BadUtf8 => write!(f, "metrics text is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// TxRows: transactions as flat rows
// ---------------------------------------------------------------------------

/// Transactions as flat `(txid, distinct input ids)` rows — what a wire
/// request carries, and the form it keeps from the socket to the router
/// that places it: three allocations however many transactions, none
/// per transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxRows {
    ids: Vec<TxId>,
    /// Where each transaction's inputs end in `inputs` (they start
    /// where the previous transaction's end, the first at 0).
    offsets: Vec<u32>,
    inputs: Vec<TxId>,
}

impl TxRows {
    /// Empty rows with room for `txs` transactions and `inputs` input
    /// ids in total.
    pub fn with_capacity(txs: usize, inputs: usize) -> Self {
        TxRows {
            ids: Vec::with_capacity(txs),
            offsets: Vec::with_capacity(txs),
            inputs: Vec::with_capacity(inputs),
        }
    }

    /// Appends one transaction.
    pub fn push(&mut self, txid: TxId, inputs: impl IntoIterator<Item = TxId>) {
        self.ids.push(txid);
        self.inputs.extend(inputs);
        self.offsets.push(self.inputs.len() as u32);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Each transaction's id and input ids, in order.
    pub fn iter(&self) -> impl Iterator<Item = (TxId, &[TxId])> + '_ {
        let mut lo = 0;
        self.ids.iter().zip(&self.offsets).map(move |(&txid, &hi)| {
            let inputs = &self.inputs[lo..hi as usize];
            lo = hi as usize;
            (txid, inputs)
        })
    }
}

// ---------------------------------------------------------------------------
// Little-endian cursor helpers
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos.checked_add(4).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self.pos.checked_add(8).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// The next `len` bytes, which the caller has checked remain.
    fn bytes(&mut self, len: usize) -> &'a [u8] {
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        bytes
    }

    /// Validates that `count` elements of `elem_bytes` each can still
    /// fit in the remaining payload before any allocation happens.
    fn check_count(&self, count: u32, elem_bytes: usize) -> Result<usize, DecodeError> {
        let need = (count as u64).saturating_mul(elem_bytes as u64);
        if need > self.remaining() as u64 {
            return Err(DecodeError::CountOverflow {
                count: count as u64,
            });
        }
        Ok(count as usize)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Where the one transaction parser puts what it reads: a `Vec` of
/// [`WireTx`] behind [`decode_request`], flat [`TxRows`] behind
/// [`decode_rows`].
trait TxSink {
    /// Room for `txs` transactions with `inputs` input ids in total.
    fn with_capacity(txs: usize, inputs: usize) -> Self;
    fn put(&mut self, txid: TxId, inputs: impl ExactSizeIterator<Item = TxId>);
}

impl TxSink for Vec<WireTx> {
    fn with_capacity(txs: usize, _inputs: usize) -> Self {
        Vec::with_capacity(txs)
    }

    fn put(&mut self, txid: TxId, inputs: impl ExactSizeIterator<Item = TxId>) {
        let inputs = inputs.collect();
        self.push(WireTx { txid, inputs });
    }
}

impl TxSink for TxRows {
    fn with_capacity(txs: usize, inputs: usize) -> Self {
        TxRows::with_capacity(txs, inputs)
    }

    fn put(&mut self, txid: TxId, inputs: impl ExactSizeIterator<Item = TxId>) {
        self.push(txid, inputs);
    }
}

/// Reads one transaction into `sink` — the one place a transaction's
/// bytes are judged, whichever sink they land in.
fn decode_wire_tx(c: &mut Cursor<'_>, sink: &mut impl TxSink) -> Result<(), DecodeError> {
    let txid = TxId(c.u64()?);
    let n = c.u32()?;
    let n = c.check_count(n, 8)?;
    let ids = c.bytes(n * 8).chunks_exact(8);
    sink.put(
        txid,
        ids.map(|id| TxId(u64::from_le_bytes(id.try_into().expect("8 bytes")))),
    );
    Ok(())
}

fn encode_wire_tx(out: &mut Vec<u8>, tx: &WireTx) {
    put_u64(out, tx.txid.0);
    put_u32(out, tx.inputs.len() as u32);
    for input in &tx.inputs {
        put_u64(out, input.0);
    }
}

// ---------------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------------

/// Encodes a request payload (no length prefix) into `out`, cleared
/// first.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    match req {
        Request::Submit { req_id, fee, tx } => {
            out.push(OP_SUBMIT);
            put_u64(out, *req_id);
            put_u64(out, *fee);
            encode_wire_tx(out, tx);
        }
        Request::SubmitBatch { req_id, fee, txs } => {
            out.push(OP_SUBMIT_BATCH);
            put_u64(out, *req_id);
            put_u64(out, *fee);
            put_u32(out, txs.len() as u32);
            for tx in txs {
                encode_wire_tx(out, tx);
            }
        }
        Request::Query { req_id, txid } => {
            out.push(OP_QUERY);
            put_u64(out, *req_id);
            put_u64(out, txid.0);
        }
        Request::Metrics { req_id } => {
            out.push(OP_METRICS);
            put_u64(out, *req_id);
        }
    }
}

/// A decoded request payload with its transactions in a sink of type
/// `T`: what [`decode_rows`] hands the server's reader, one
/// [`TxRows`] per submission instead of a `Vec` per transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<T> {
    /// A [`Request::Submit`] (`batch: false`, exactly one transaction)
    /// or a [`Request::SubmitBatch`].
    Place {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Admission priority.
        fee: u64,
        /// Answered with [`Response::AckBatch`] rather than
        /// [`Response::Ack`].
        batch: bool,
        /// The transactions, in order.
        txs: T,
    },
    /// A [`Request::Query`].
    Query {
        /// Client-chosen correlation id.
        req_id: u64,
        /// The transaction id to look up.
        txid: TxId,
    },
    /// A [`Request::Metrics`].
    Metrics {
        /// Client-chosen correlation id.
        req_id: u64,
    },
}

/// The one request parser behind [`decode_request`] and
/// [`decode_rows`].
fn decode<T: TxSink>(payload: &[u8]) -> Result<Decoded<T>, DecodeError> {
    let mut c = Cursor::new(payload);
    let opcode = c.u8()?;
    let decoded = match opcode {
        OP_SUBMIT | OP_SUBMIT_BATCH => {
            let req_id = c.u64()?;
            let fee = c.u64()?;
            let batch = opcode == OP_SUBMIT_BATCH;
            // A wire tx is at least 12 bytes (txid + input count);
            // whatever else remains can only be input ids.
            let count = match batch {
                true => {
                    let count = c.u32()?;
                    c.check_count(count, 12)?
                }
                false => 1,
            };
            let mut txs = T::with_capacity(count, c.remaining().saturating_sub(12 * count) / 8);
            for _ in 0..count {
                decode_wire_tx(&mut c, &mut txs)?;
            }
            Decoded::Place {
                req_id,
                fee,
                batch,
                txs,
            }
        }
        OP_QUERY => Decoded::Query {
            req_id: c.u64()?,
            txid: TxId(c.u64()?),
        },
        OP_METRICS => Decoded::Metrics { req_id: c.u64()? },
        op => return Err(DecodeError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(decoded)
}

/// Decodes a request payload. Total: every input yields a request or a
/// typed error.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    Ok(match decode::<Vec<WireTx>>(payload)? {
        Decoded::Place {
            req_id,
            fee,
            batch: true,
            txs,
        } => Request::SubmitBatch { req_id, fee, txs },
        Decoded::Place {
            req_id,
            fee,
            batch: false,
            mut txs,
        } => Request::Submit {
            req_id,
            fee,
            tx: txs.pop().expect("a Submit decodes to one transaction"),
        },
        Decoded::Query { req_id, txid } => Request::Query { req_id, txid },
        Decoded::Metrics { req_id } => Request::Metrics { req_id },
    })
}

/// [`decode_request`] with each submission's transactions as flat
/// [`TxRows`] — the same parser, so the two accept and reject exactly
/// the same payloads.
pub fn decode_rows(payload: &[u8]) -> Result<Decoded<TxRows>, DecodeError> {
    decode(payload)
}

/// Encodes a response payload (no length prefix) into `out`, cleared
/// first.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    match resp {
        Response::Hello {
            credit_window,
            max_frame_bytes,
            shards,
        } => {
            out.push(OP_HELLO);
            put_u32(out, *credit_window);
            put_u32(out, *max_frame_bytes);
            put_u32(out, *shards);
        }
        Response::Ack { req_id, shard } => {
            out.push(OP_ACK);
            put_u64(out, *req_id);
            put_u32(out, *shard);
        }
        Response::AckBatch { req_id, shards } => {
            out.push(OP_ACK_BATCH);
            put_u64(out, *req_id);
            put_u32(out, shards.len() as u32);
            for shard in shards {
                put_u32(out, *shard);
            }
        }
        Response::Reject { req_id, reason } => {
            out.push(OP_REJECT);
            put_u64(out, *req_id);
            out.push(*reason as u8);
        }
        Response::QueryResult { req_id, shard } => {
            out.push(OP_QUERY_RESULT);
            put_u64(out, *req_id);
            out.push(shard.is_some() as u8);
            put_u32(out, shard.unwrap_or(0));
        }
        Response::MetricsText { req_id, text } => {
            out.push(OP_METRICS_TEXT);
            put_u64(out, *req_id);
            put_u32(out, text.len() as u32);
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// Decodes a response payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        OP_HELLO => Response::Hello {
            credit_window: c.u32()?,
            max_frame_bytes: c.u32()?,
            shards: c.u32()?,
        },
        OP_ACK => Response::Ack {
            req_id: c.u64()?,
            shard: c.u32()?,
        },
        OP_ACK_BATCH => {
            let req_id = c.u64()?;
            let count = c.u32()?;
            let count = c.check_count(count, 4)?;
            let mut shards = Vec::with_capacity(count);
            for _ in 0..count {
                shards.push(c.u32()?);
            }
            Response::AckBatch { req_id, shards }
        }
        OP_REJECT => {
            let req_id = c.u64()?;
            let byte = c.u8()?;
            let reason = RejectReason::from_u8(byte).ok_or(DecodeError::UnknownReason(byte))?;
            Response::Reject { req_id, reason }
        }
        OP_QUERY_RESULT => {
            let req_id = c.u64()?;
            let found = c.u8()? != 0;
            let shard = c.u32()?;
            Response::QueryResult {
                req_id,
                shard: found.then_some(shard),
            }
        }
        OP_METRICS_TEXT => {
            let req_id = c.u64()?;
            let len = c.u32()?;
            let len = c.check_count(len, 1)?;
            Response::MetricsText {
                req_id,
                text: std::str::from_utf8(c.bytes(len))
                    .map_err(|_| DecodeError::BadUtf8)?
                    .to_string(),
            }
        }
        op => return Err(DecodeError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The outcome of reading one frame off a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload landed in the caller's buffer.
    Payload,
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// The declared length exceeds `max_bytes`; the payload was **not**
    /// read (the stream is no longer framable).
    TooLarge {
        /// The declared payload length.
        len: u32,
    },
}

/// Reads one length-prefixed frame into `buf` (cleared first).
///
/// A clean EOF *before any length byte* is [`FrameRead::Eof`]; EOF
/// inside the prefix or the payload is an [`io::ErrorKind::UnexpectedEof`]
/// error — a truncated frame, which the caller treats as a broken peer.
pub fn read_frame(r: &mut impl Read, max_bytes: u32, buf: &mut Vec<u8>) -> io::Result<FrameRead> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(FrameRead::Eof);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_bytes {
        return Ok(FrameRead::TooLarge { len });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(FrameRead::Payload)
}

/// Writes `payload` as one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Submit {
                req_id: 7,
                fee: 42,
                tx: WireTx {
                    txid: TxId(9),
                    inputs: vec![TxId(1), TxId(2)],
                },
            },
            Request::SubmitBatch {
                req_id: 8,
                fee: 0,
                txs: vec![
                    WireTx {
                        txid: TxId(10),
                        inputs: vec![],
                    },
                    WireTx {
                        txid: TxId(11),
                        inputs: vec![TxId(10)],
                    },
                ],
            },
            Request::Query {
                req_id: 9,
                txid: TxId(3),
            },
            Request::Metrics { req_id: 10 },
        ];
        let mut buf = Vec::new();
        for req in &reqs {
            encode_request(req, &mut buf);
            assert_eq!(decode_request(&buf).unwrap(), *req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Hello {
                credit_window: 64,
                max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
                shards: 16,
            },
            Response::Ack {
                req_id: 1,
                shard: 3,
            },
            Response::AckBatch {
                req_id: 2,
                shards: vec![0, 1, 2],
            },
            Response::Reject {
                req_id: 3,
                reason: RejectReason::QueueFull,
            },
            Response::QueryResult {
                req_id: 4,
                shard: Some(5),
            },
            Response::QueryResult {
                req_id: 5,
                shard: None,
            },
            Response::MetricsText {
                req_id: 6,
                text: "optchain_admitted_total 3\n".to_string(),
            },
        ];
        let mut buf = Vec::new();
        for resp in &resps {
            encode_response(resp, &mut buf);
            assert_eq!(decode_response(&buf).unwrap(), *resp);
        }
        // Byte 5, the retired duplicate refusal, is no reason.
        let labels = (0..=u8::MAX).filter_map(RejectReason::from_u8);
        assert_eq!(labels.map(|r| r as u8).collect::<Vec<_>>(), [1, 2, 3, 4, 6]);
    }

    #[test]
    fn hostile_count_is_rejected_without_allocation() {
        // A batch count of u32::MAX with a near-empty payload must be
        // caught by the pre-allocation bound check.
        let mut buf = vec![OP_SUBMIT_BATCH];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match decode_request(&buf) {
            Err(DecodeError::CountOverflow { count }) => assert_eq!(count, u32::MAX as u64),
            other => panic!("expected CountOverflow, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut buf = Vec::new();
        encode_request(&Request::Metrics { req_id: 1 }, &mut buf);
        buf.push(0xFF);
        assert_eq!(
            decode_request(&buf),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, 1024, &mut buf).unwrap(),
            FrameRead::Payload
        ));
        assert_eq!(buf, b"hello");
        assert!(matches!(
            read_frame(&mut r, 1024, &mut buf).unwrap(),
            FrameRead::Payload
        ));
        assert!(buf.is_empty());
        assert!(matches!(
            read_frame(&mut r, 1024, &mut buf).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_frame_is_reported_not_read() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &wire[..];
        let mut buf = Vec::new();
        match read_frame(&mut r, 1024, &mut buf).unwrap() {
            FrameRead::TooLarge { len } => assert_eq!(len, u32::MAX),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_unexpected_eof() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(b"abc"); // 3 of 10 promised bytes
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut r, 1024, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
