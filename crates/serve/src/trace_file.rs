//! Versioned binary trace files for the record/replay harness.
//!
//! A trace is an ordered capture of client request frames — exactly the
//! bytes a client would put on the wire — plus the seed the deterministic
//! generator was run with, so a trace is self-describing and replayable
//! bit-for-bit on any build that speaks its version.
//!
//! ## File layout
//!
//! ```text
//! [ magic: 8 bytes = "REPFTRC\0" ]
//! [ trace version: u16 LE = 1 ]
//! [ proto version: u8 ]            // PROTO_VERSION the frames encode
//! [ generator seed: u64 LE ]
//! [ record count: u32 LE ]
//! count × [ len: u32 LE ][ body ]  // request frames, wire encoding
//! ```
//!
//! Records reuse the wire framing ([`Request::encode`] /
//! [`proto::read_frame`]) so a recorded frame and a live frame are the
//! same bytes; every record must decode as a [`Request`] on load — a
//! trace file can never smuggle undecodable bytes into a replay.

use crate::proto::{self, FrameReadError, ProtoError, Request, PROTO_VERSION};
use std::io::{Read, Write};
use std::path::Path;

/// First eight bytes of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"REPFTRC\0";

/// Trace file format version this build reads and writes.
pub const TRACE_VERSION: u16 = 1;

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying read or write failure (including truncation).
    Io(std::io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's trace version is not [`TRACE_VERSION`].
    BadVersion(u16),
    /// The file's frames use an unsupported protocol version.
    BadProtoVersion(u8),
    /// A recorded frame did not decode as a request.
    Proto(ProtoError),
    /// The file ended before the declared record count.
    Truncated {
        /// Records successfully read before the cut.
        read: u32,
        /// Records the header declared.
        declared: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::BadMagic => write!(f, "not a repf trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadProtoVersion(v) => {
                write!(f, "trace frames use unsupported protocol version {v}")
            }
            TraceError::Proto(e) => write!(f, "undecodable recorded frame: {e}"),
            TraceError::Truncated { read, declared } => {
                write!(f, "trace truncated: {read} of {declared} records")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// An ordered capture of request frames plus the generator seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Seed the deterministic generator used (0 for hand-built traces).
    pub seed: u64,
    /// The requests, in submission order.
    pub records: Vec<Request>,
}

impl Trace {
    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize the trace (header + every request frame) into `w`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&TRACE_MAGIC)?;
        w.write_all(&TRACE_VERSION.to_le_bytes())?;
        w.write_all(&[PROTO_VERSION])?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&(self.records.len() as u32).to_le_bytes())?;
        for req in &self.records {
            w.write_all(&req.encode())?;
        }
        w.flush()
    }

    /// Parse a trace from `r`, validating the header and decoding every
    /// recorded frame.
    pub fn read_from(r: &mut impl Read) -> Result<Trace, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut v2 = [0u8; 2];
        r.read_exact(&mut v2)?;
        let version = u16::from_le_bytes(v2);
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let mut pv = [0u8; 1];
        r.read_exact(&mut pv)?;
        if pv[0] != PROTO_VERSION {
            return Err(TraceError::BadProtoVersion(pv[0]));
        }
        let mut seed8 = [0u8; 8];
        r.read_exact(&mut seed8)?;
        let seed = u64::from_le_bytes(seed8);
        let mut cnt4 = [0u8; 4];
        r.read_exact(&mut cnt4)?;
        let declared = u32::from_le_bytes(cnt4);
        let mut records = Vec::new();
        for read in 0..declared {
            let body = match proto::read_frame(r) {
                Ok(Some(body)) => body,
                Ok(None) => return Err(TraceError::Truncated { read, declared }),
                Err(FrameReadError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return Err(TraceError::Truncated { read, declared })
                }
                Err(FrameReadError::Io(e)) => return Err(TraceError::Io(e)),
                Err(FrameReadError::Proto(e)) => return Err(TraceError::Proto(e)),
            };
            records.push(Request::decode(&body).map_err(TraceError::Proto)?);
        }
        Ok(Trace { seed, records })
    }

    /// Write the trace to a file, replacing any existing content.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)
    }

    /// Load and validate a trace file.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut f)
    }
}

/// Captures request frames in order as they are issued; [`finish`]
/// (Self::finish) seals the capture into a [`Trace`].
pub struct TraceRecorder {
    seed: u64,
    records: Vec<Request>,
}

impl TraceRecorder {
    /// An empty recorder tagged with the generator seed it will capture.
    pub fn new(seed: u64) -> Self {
        TraceRecorder {
            seed,
            records: Vec::new(),
        }
    }

    /// Capture one request.
    pub fn record(&mut self, req: Request) {
        self.records.push(req);
    }

    /// Requests captured so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was captured yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Seal the capture.
    pub fn finish(self) -> Trace {
        Trace {
            seed: self.seed,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Target;

    fn sample_trace() -> Trace {
        let mut rec = TraceRecorder::new(0xBEEF);
        rec.record(Request::Ping);
        rec.record(Request::QueryMrc {
            target: Target::Session("a".into()),
            sizes_bytes: vec![32 << 10, 1 << 20],
        });
        rec.record(Request::Stats);
        rec.finish()
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.seed, 0xBEEF);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();

        let mut wrong_magic = buf.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            Trace::read_from(&mut wrong_magic.as_slice()),
            Err(TraceError::BadMagic)
        ));

        let mut wrong_version = buf.clone();
        wrong_version[8] = 0xEE;
        assert!(matches!(
            Trace::read_from(&mut wrong_version.as_slice()),
            Err(TraceError::BadVersion(_))
        ));

        let mut wrong_proto = buf;
        wrong_proto[10] = 0x7F;
        assert!(matches!(
            Trace::read_from(&mut wrong_proto.as_slice()),
            Err(TraceError::BadProtoVersion(0x7F))
        ));
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Cut anywhere after the header: must be Truncated or Io, never
        // a panic or a silently short trace.
        for cut in 23..buf.len() {
            match Trace::read_from(&mut buf[..cut].to_vec().as_slice()) {
                Err(TraceError::Truncated { declared: 3, .. }) | Err(TraceError::Io(_)) => {}
                Ok(_) => panic!("cut at {cut} produced a full trace"),
                Err(e) => panic!("cut at {cut}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn undecodable_record_is_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // First record starts right after the 23-byte header; frame is
        // [len][version][type]. Corrupt the type byte of record 0.
        buf[23 + 5] = 0x7E;
        assert!(matches!(
            Trace::read_from(&mut buf.as_slice()),
            Err(TraceError::Proto(_))
        ));
    }
}
