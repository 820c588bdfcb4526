//! optchain-client: a small blocking client for the optchain
//! placement node (`optchain-server`).
//!
//! Two usage styles:
//!
//! * **Synchronous** — [`Client::submit`], [`Client::submit_batch`],
//!   [`Client::query`], [`Client::metrics_text`]: one request, wait
//!   for its response, typed errors on rejection.
//! * **Pipelined** — [`Client::send_submit`] /
//!   [`Client::send_batch`] to fire requests without waiting, then
//!   [`Client::recv_event`] to collect responses in order. This is
//!   how a load generator keeps the server's credit window full.
//!
//! ```no_run
//! use optchain_client::Client;
//! use optchain_utxo::TxId;
//!
//! let mut c = Client::connect("127.0.0.1:7171").expect("connect");
//! let shard = c.submit(10, TxId(1), &[]).expect("place");
//! let parent = c.query(TxId(1)).expect("query");
//! assert_eq!(parent, Some(shard));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use optchain_server::protocol::{
    self, DecodeError, FrameRead, Request, Response, WireTx, MAX_FRAME_BYTES_CEILING,
};
use optchain_utxo::TxId;

pub use optchain_server::protocol::RejectReason;

/// Everything that can go wrong talking to a placement node.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or closed mid-frame.
    Io(io::Error),
    /// The server sent bytes that don't decode as a response.
    Decode(DecodeError),
    /// The server shed the request; the typed reason says why (see
    /// [`RejectReason`] for the retry semantics of each).
    Rejected {
        /// The request this rejection answers (0 when the server
        /// could not parse the offending frame).
        req_id: u64,
        /// Why the request was shed.
        reason: RejectReason,
    },
    /// The server closed the connection at a frame boundary.
    ServerClosed,
    /// A protocol-state error: the response type didn't match the
    /// outstanding request (e.g. an `AckBatch` answering a `Submit`).
    UnexpectedResponse {
        /// What the client was waiting for.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
            ClientError::Decode(err) => write!(f, "undecodable response: {err}"),
            ClientError::Rejected { req_id, reason } => {
                write!(f, "request {req_id} rejected: {reason}")
            }
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<DecodeError> for ClientError {
    fn from(err: DecodeError) -> Self {
        ClientError::Decode(err)
    }
}

/// A response event, as delivered by [`Client::recv_event`] when
/// pipelining. Mirrors the wire responses minus the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A single submit was placed on `shard`.
    Ack {
        /// The request this answers.
        req_id: u64,
        /// The shard the transaction was placed on.
        shard: u32,
    },
    /// A batch was placed; one shard per transaction, in order.
    AckBatch {
        /// The request this answers.
        req_id: u64,
        /// Placements, in batch order.
        shards: Vec<u32>,
    },
    /// The request was shed.
    Reject {
        /// The request this answers (0 for connection-level rejects).
        req_id: u64,
        /// Why it was shed.
        reason: RejectReason,
    },
    /// Answer to a `Query`.
    QueryResult {
        /// The request this answers.
        req_id: u64,
        /// The placed shard, or `None` if the id is unknown.
        shard: Option<u32>,
    },
    /// Answer to a `Metrics` request.
    MetricsText {
        /// The request this answers.
        req_id: u64,
        /// The text exposition body.
        text: String,
    },
}

impl Event {
    fn kind(&self) -> &'static str {
        match self {
            Event::Ack { .. } => "ack",
            Event::AckBatch { .. } => "ack_batch",
            Event::Reject { .. } => "reject",
            Event::QueryResult { .. } => "query_result",
            Event::MetricsText { .. } => "metrics_text",
        }
    }
}

/// A blocking connection to a placement node.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
    next_req_id: u64,
    credit_window: u32,
    max_frame_bytes: u32,
    shards: u32,
}

impl Client {
    /// Connects and completes the handshake (the server speaks first,
    /// announcing its credit window, frame limit, and shard count).
    ///
    /// # Errors
    ///
    /// Connection failures, or a handshake that isn't a `Hello`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let mut client = Client {
            reader: stream,
            writer,
            frame: Vec::new(),
            payload: Vec::new(),
            next_req_id: 1,
            credit_window: 0,
            max_frame_bytes: 0,
            shards: 0,
        };
        match client.recv_response()? {
            Response::Hello {
                credit_window,
                max_frame_bytes,
                shards,
            } => {
                client.credit_window = credit_window;
                client.max_frame_bytes = max_frame_bytes;
                client.shards = shards;
                Ok(client)
            }
            other => Err(ClientError::UnexpectedResponse {
                expected: "hello",
                got: response_kind(&other),
            }),
        }
    }

    /// Sets the socket read timeout (None blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    /// The server's per-connection credit window, from the handshake:
    /// how many requests may be in flight before the server pauses
    /// reads. Pipelining callers should stay at or under it.
    pub fn credit_window(&self) -> u32 {
        self.credit_window
    }

    /// The server's frame size limit, from the handshake.
    pub fn max_frame_bytes(&self) -> u32 {
        self.max_frame_bytes
    }

    /// The node's shard count, from the handshake.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    // -- synchronous API ---------------------------------------------------

    /// Places one transaction and waits for its shard.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] if the server shed it, transport and
    /// protocol errors otherwise.
    pub fn submit(&mut self, fee: u64, txid: TxId, inputs: &[TxId]) -> Result<u32, ClientError> {
        let req_id = self.send_submit(fee, txid, inputs)?;
        self.flush()?;
        match self.expect_event(req_id)? {
            Event::Ack { shard, .. } => Ok(shard),
            other => Err(ClientError::UnexpectedResponse {
                expected: "ack",
                got: other.kind(),
            }),
        }
    }

    /// Places a batch atomically (one admission decision, one
    /// response) and waits for the per-transaction shards, in order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] if the batch was shed as a unit.
    pub fn submit_batch(
        &mut self,
        fee: u64,
        txs: &[(TxId, Vec<TxId>)],
    ) -> Result<Vec<u32>, ClientError> {
        let req_id = self.send_batch(fee, txs)?;
        self.flush()?;
        match self.expect_event(req_id)? {
            Event::AckBatch { shards, .. } => Ok(shards),
            other => Err(ClientError::UnexpectedResponse {
                expected: "ack_batch",
                got: other.kind(),
            }),
        }
    }

    /// Asks which shard holds `txid` (`Ok(None)` if the node has never
    /// placed it, or has already evicted it past its retention).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures; queries themselves can also be
    /// shed under overload ([`ClientError::Rejected`]).
    pub fn query(&mut self, txid: TxId) -> Result<Option<u32>, ClientError> {
        let req_id = self.next_req_id();
        self.send_request(&Request::Query { req_id, txid })?;
        self.flush()?;
        match self.expect_event(req_id)? {
            Event::QueryResult { shard, .. } => Ok(shard),
            other => Err(ClientError::UnexpectedResponse {
                expected: "query_result",
                got: other.kind(),
            }),
        }
    }

    /// Fetches the server's `/metrics`-style text exposition.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let req_id = self.next_req_id();
        self.send_request(&Request::Metrics { req_id })?;
        self.flush()?;
        match self.expect_event(req_id)? {
            Event::MetricsText { text, .. } => Ok(text),
            other => Err(ClientError::UnexpectedResponse {
                expected: "metrics_text",
                got: other.kind(),
            }),
        }
    }

    // -- pipelined API -----------------------------------------------------

    /// Queues a submit without waiting; returns its request id. Call
    /// [`Client::flush`] before blocking on [`Client::recv_event`].
    ///
    /// # Errors
    ///
    /// Transport failures while writing.
    pub fn send_submit(
        &mut self,
        fee: u64,
        txid: TxId,
        inputs: &[TxId],
    ) -> Result<u64, ClientError> {
        let req_id = self.next_req_id();
        self.send_request(&Request::Submit {
            req_id,
            fee,
            tx: WireTx {
                txid,
                inputs: inputs.to_vec(),
            },
        })?;
        Ok(req_id)
    }

    /// Queues a batch submit without waiting; returns its request id.
    ///
    /// # Errors
    ///
    /// Transport failures while writing.
    pub fn send_batch(&mut self, fee: u64, txs: &[(TxId, Vec<TxId>)]) -> Result<u64, ClientError> {
        let req_id = self.next_req_id();
        let wire: Vec<WireTx> = txs
            .iter()
            .map(|(txid, inputs)| WireTx {
                txid: *txid,
                inputs: inputs.clone(),
            })
            .collect();
        self.send_request(&Request::SubmitBatch {
            req_id,
            fee,
            txs: wire,
        })?;
        Ok(req_id)
    }

    /// Flushes buffered requests to the socket.
    ///
    /// # Errors
    ///
    /// Transport failures while flushing.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks for the next response event. Responses to pipelined
    /// requests arrive in admission-priority order, not necessarily
    /// send order — correlate by `req_id`.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerClosed`] on clean EOF, transport and
    /// decode failures otherwise. Rejections are returned as
    /// [`Event::Reject`] values, not errors, so pipelining callers can
    /// count them.
    pub fn recv_event(&mut self) -> Result<Event, ClientError> {
        match self.recv_response()? {
            Response::Hello { .. } => Err(ClientError::UnexpectedResponse {
                expected: "a post-handshake response",
                got: "hello",
            }),
            Response::Ack { req_id, shard } => Ok(Event::Ack { req_id, shard }),
            Response::AckBatch { req_id, shards } => Ok(Event::AckBatch { req_id, shards }),
            Response::Reject { req_id, reason } => Ok(Event::Reject { req_id, reason }),
            Response::QueryResult { req_id, shard } => Ok(Event::QueryResult { req_id, shard }),
            Response::MetricsText { req_id, text } => Ok(Event::MetricsText { req_id, text }),
        }
    }

    // -- internals ---------------------------------------------------------

    fn next_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        protocol::encode_request(request, &mut self.payload);
        protocol::write_frame(&mut self.writer, &self.payload)?;
        Ok(())
    }

    fn recv_response(&mut self) -> Result<Response, ClientError> {
        match protocol::read_frame(&mut self.reader, MAX_FRAME_BYTES_CEILING, &mut self.frame)? {
            FrameRead::Payload => Ok(protocol::decode_response(&self.frame)?),
            FrameRead::Eof => Err(ClientError::ServerClosed),
            FrameRead::TooLarge { len } => Err(ClientError::Decode(DecodeError::FrameTooLarge {
                len,
                max: MAX_FRAME_BYTES_CEILING,
            })),
        }
    }

    /// Waits for the event answering `req_id`; a `Reject` for it
    /// becomes [`ClientError::Rejected`], anything answering a
    /// different request is a protocol-state error (the sync API never
    /// has two requests outstanding).
    fn expect_event(&mut self, req_id: u64) -> Result<Event, ClientError> {
        let event = self.recv_event()?;
        let answers = match &event {
            Event::Ack { req_id: r, .. }
            | Event::AckBatch { req_id: r, .. }
            | Event::QueryResult { req_id: r, .. }
            | Event::MetricsText { req_id: r, .. } => *r,
            Event::Reject { req_id: r, reason } => {
                return Err(ClientError::Rejected {
                    req_id: *r,
                    reason: *reason,
                });
            }
        };
        if answers != req_id {
            return Err(ClientError::UnexpectedResponse {
                expected: "a response to the outstanding request",
                got: event.kind(),
            });
        }
        Ok(event)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("credit_window", &self.credit_window)
            .field("shards", &self.shards)
            .finish()
    }
}

fn response_kind(resp: &Response) -> &'static str {
    match resp {
        Response::Hello { .. } => "hello",
        Response::Ack { .. } => "ack",
        Response::AckBatch { .. } => "ack_batch",
        Response::Reject { .. } => "reject",
        Response::QueryResult { .. } => "query_result",
        Response::MetricsText { .. } => "metrics_text",
    }
}
