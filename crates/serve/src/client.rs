//! A blocking client for the serve protocol: one TCP connection, one
//! in-flight request at a time (responses arrive in request order).

use crate::proto::{
    self, ErrorCode, FrameReadError, MachineId, PlanWire, ProtoError, Request, Response,
    SampleBatch, Target,
};
use repf_sampling::Profile;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's bytes did not decode.
    Proto(ProtoError),
    /// The server answered [`Response::Busy`] — back off and retry.
    Busy,
    /// The server answered an error response.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server closed the connection mid-call.
    Disconnected,
    /// The response type did not match the request.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Disconnected => {
                write!(
                    f,
                    "connection closed by server (daemon gone or shutting down)"
                )
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Set a read timeout for responses (`None` blocks indefinitely).
    pub fn set_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(t)?;
        self.stream.set_write_timeout(t)?;
        Ok(())
    }

    /// Send `req` and wait for its response. Surfaces `Busy` and server
    /// errors as [`ClientError`] variants; protocol-level responses
    /// (`Pong`, `Mrc`, ...) are returned for the caller to match.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.call_any(req)? {
            Response::Busy => Err(ClientError::Busy),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Send `req` and return whatever response arrives — `Busy` and
    /// `Error` included, undisturbed. The replay harness compares raw
    /// responses bit-for-bit, so nothing may be folded into errors here.
    ///
    /// A connection the server closed (EOF, reset, broken pipe — e.g. a
    /// daemon shutting down mid-request) is reported as
    /// [`ClientError::Disconnected`], not as a raw io error chain.
    pub fn call_any(&mut self, req: &Request) -> Result<Response, ClientError> {
        proto::write_frame(&mut self.stream, &req.encode()).map_err(Self::map_closed)?;
        let body = match proto::read_frame(&mut self.stream) {
            Ok(Some(body)) => body,
            Ok(None) => return Err(ClientError::Disconnected),
            Err(FrameReadError::Io(e)) => return Err(Self::map_closed(e)),
            Err(FrameReadError::Proto(e)) => return Err(ClientError::Proto(e)),
        };
        Response::decode(&body).map_err(ClientError::Proto)
    }

    /// Fold the io-error kinds that mean "the peer hung up" into the
    /// typed [`ClientError::Disconnected`]; everything else stays io.
    pub(crate) fn map_closed(e: std::io::Error) -> ClientError {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => ClientError::Disconnected,
            _ => ClientError::Io(e),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("want Pong")),
        }
    }

    /// Submit a whole sampling profile to a named session. Returns
    /// `(store_bytes, evicted)`.
    pub fn submit_profile(
        &mut self,
        session: &str,
        profile: &Profile,
    ) -> Result<(u64, u32), ClientError> {
        self.submit_batch(session, SampleBatch::from_profile(profile))
    }

    /// Submit one batch to a named session.
    pub fn submit_batch(
        &mut self,
        session: &str,
        batch: SampleBatch,
    ) -> Result<(u64, u32), ClientError> {
        match self.call(&Request::Submit {
            session: session.to_string(),
            batch,
        })? {
            Response::Accepted {
                store_bytes,
                evicted,
            } => Ok((store_bytes, evicted)),
            _ => Err(ClientError::Unexpected("want Accepted")),
        }
    }

    /// Application miss ratios of `target` at `sizes_bytes`.
    pub fn query_mrc(
        &mut self,
        target: Target,
        sizes_bytes: Vec<u64>,
    ) -> Result<Vec<f64>, ClientError> {
        match self.call(&Request::QueryMrc {
            target,
            sizes_bytes,
        })? {
            Response::Mrc { ratios } => Ok(ratios),
            _ => Err(ClientError::Unexpected("want Mrc")),
        }
    }

    /// Per-PC miss ratios (`None` when the PC has no samples).
    pub fn query_pc_mrc(
        &mut self,
        target: Target,
        pc: u32,
        sizes_bytes: Vec<u64>,
    ) -> Result<Option<Vec<f64>>, ClientError> {
        match self.call(&Request::QueryPcMrc {
            target,
            pc,
            sizes_bytes,
        })? {
            Response::PcMrc { ratios } => Ok(ratios),
            _ => Err(ClientError::Unexpected("want PcMrc")),
        }
    }

    /// Full prefetch plan for `target` analyzed for `machine`.
    pub fn query_plan(
        &mut self,
        target: Target,
        machine: MachineId,
        delta: f64,
    ) -> Result<PlanWire, ClientError> {
        match self.call(&Request::QueryPlan {
            target,
            machine,
            delta,
        })? {
            Response::Plan(p) => Ok(p),
            _ => Err(ClientError::Unexpected("want Plan")),
        }
    }

    /// Predicted shared-cache behaviour of `sessions` co-running on one
    /// cache: per-session miss-ratio curves (request order) plus the
    /// mix-throughput estimate, one entry per size. `intensities` is
    /// either empty (per-session weights inferred from sample counts,
    /// bit-exact with the pre-override wire format) or one weight per
    /// session.
    #[allow(clippy::type_complexity)]
    pub fn co_run(
        &mut self,
        sessions: Vec<String>,
        sizes_bytes: Vec<u64>,
        intensities: Vec<f64>,
    ) -> Result<(Vec<(String, Vec<f64>)>, Vec<f64>), ClientError> {
        match self.call(&Request::CoRun {
            sessions,
            sizes_bytes,
            intensities,
        })? {
            Response::CoRun {
                per_session,
                throughput,
            } => Ok((per_session, throughput)),
            _ => Err(ClientError::Unexpected("want CoRun")),
        }
    }

    /// Search co-run placements of `sessions` into `groups` cache-sharing
    /// groups of at most `capacity` members, minimizing the predicted
    /// aggregate miss ratio at `size_bytes`. Returns the winning
    /// grouping (session names, canonical order), its aggregate miss
    /// ratio and throughput estimate, and the nodes the walk visited.
    #[allow(clippy::type_complexity)]
    pub fn place(
        &mut self,
        sessions: Vec<String>,
        groups: u32,
        capacity: u32,
        size_bytes: u64,
        intensities: Vec<f64>,
    ) -> Result<(Vec<Vec<String>>, f64, f64, u64), ClientError> {
        match self.call(&Request::Place {
            sessions,
            groups,
            capacity,
            size_bytes,
            intensities,
        })? {
            Response::Placement {
                groups,
                total_miss_ratio,
                throughput,
                nodes_explored,
            } => Ok((groups, total_miss_ratio, throughput, nodes_explored)),
            _ => Err(ClientError::Unexpected("want Placement")),
        }
    }

    /// Server metrics snapshot.
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            _ => Err(ClientError::Unexpected("want Stats")),
        }
    }

    /// Send the shutdown control message; the server acknowledges, then
    /// drains in-flight work and exits.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("want ShuttingDown")),
        }
    }
}
