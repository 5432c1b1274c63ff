//! The wire layer: owned byte payloads, one pack/unpack boundary, framing.
//!
//! Every message payload in the runtime is an owned byte vector
//! ([`Payload`] = `Vec<u8>`). Application message
//! types implement [`WireCodec`] — explicit `pack`/`unpack` built on the
//! `ckpt` crate's little-endian [`Enc`]/[`Dec`] codec — so the *same*
//! bytes flow through the DES backend, the threads backend, and (framed
//! over Unix domain sockets) the multi-process backend. There is no
//! in-process fast path with a different representation: what the DES
//! delivers is bit-identical to what crosses the wire.
//!
//! [`EntryTable`] is the one wire-stable registry of entry-method names:
//! entry ids are dense `u16`s in registration order, shared by
//! pack/unpack, fault-rule matching, tracing, and statistics.
//!
//! Framing (the `proc` backend's transport unit) is length-prefixed and
//! checksummed:
//!
//! ```text
//! u32 body_len · u64 crc64(body) · body
//! ```
//!
//! The CRC-64/ECMA checksum (reused from `ckpt`) rejects any single-bit
//! corruption at the frame boundary; [`read_frame`] surfaces it as an
//! `InvalidData` I/O error, never as a silently wrong message.

use std::io::{self, Read, Write};

use crate::msg::{EntryId, Payload};

pub use ckpt::{crc64, Dec, Enc};

/// A pack/unpack failure: truncated payload, bad tag, out-of-range field.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<ckpt::CkptError> for WireError {
    fn from(e: ckpt::CkptError) -> Self {
        WireError(e.to_string())
    }
}

/// Explicit serialization for one message type. `unpack(pack())` must be
/// the identity — bit-exact, not just semantically equal — because the
/// DES/threads backends deliver the packed bytes directly and trajectory
/// determinism across backends rides on it.
pub trait WireCodec: Sized {
    /// Serialize to an owned byte payload (little-endian, `ckpt` codec).
    fn pack(&self) -> Payload;
    /// Deserialize; every malformed input yields a named error.
    fn unpack(bytes: &[u8]) -> Result<Self, WireError>;
}

/// The wire-stable registry of entry-method names. Entry ids are dense
/// `u16`s in registration order; both sides of a socket register entries
/// in the same order (they fork from the same parent), so an id on the
/// wire means the same handler everywhere.
///
/// Derefs to `[String]` so existing `&[String]` consumers (trace export,
/// grainsize reports) keep working unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryTable {
    names: Vec<String>,
}

impl EntryTable {
    pub fn new() -> EntryTable {
        EntryTable { names: Vec::new() }
    }

    /// Register the next entry method, returning its dense id.
    pub fn register(&mut self, name: &str) -> EntryId {
        assert!(self.names.len() < u16::MAX as usize, "entry table full");
        let id = EntryId(self.names.len() as u16);
        self.names.push(name.to_string());
        id
    }

    /// Human-readable name for an id (`"?"` for unregistered ids).
    pub fn name(&self, entry: EntryId) -> &str {
        self.names.get(entry.idx()).map(String::as_str).unwrap_or("?")
    }

    /// Reverse lookup: the id registered under `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<EntryId> {
        self.names.iter().position(|n| n == name).map(|i| EntryId(i as u16))
    }

    /// The registered names, densely indexed by entry id.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl std::ops::Deref for EntryTable {
    type Target = [String];
    fn deref(&self) -> &[String] {
        &self.names
    }
}

/// One application message as it crosses a process boundary: the routing
/// header the comm layer needs plus the packed payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMsg {
    /// Destination object.
    pub to: crate::msg::ObjId,
    /// Entry method to invoke (id from the shared [`EntryTable`]).
    pub entry: EntryId,
    /// Sending PE.
    pub src: crate::msg::Pe,
    /// Destination PE (owner of `to` — routed by the sender so the
    /// receiver need not consult a placement table).
    pub dst: crate::msg::Pe,
    /// Queueing priority at the destination.
    pub priority: crate::msg::Priority,
    /// *Modeled* message size in bytes (the cost model's notion of size,
    /// carried so measured backends report the same `bytes_sent` as DES).
    pub bytes: u64,
    /// Critical-path length through this message, seconds.
    pub path: f64,
    /// Packed application payload.
    pub payload: Payload,
}

impl WireCodec for WireMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(38 + self.payload.len());
        e.u32(self.to.0);
        e.u16(self.entry.0);
        e.u32(self.src as u32);
        e.u32(self.dst as u32);
        e.i32(self.priority);
        e.u64(self.bytes);
        e.f64(self.path);
        e.bytes(&self.payload);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<WireMsg, WireError> {
        let mut d = Dec::new(bytes);
        let msg = WireMsg {
            to: crate::msg::ObjId(d.u32("to")?),
            entry: EntryId(d.u16("entry")?),
            src: d.u32("src")? as usize,
            dst: d.u32("dst")? as usize,
            priority: d.i32("priority")?,
            bytes: d.u64("bytes")?,
            path: d.f64("path")?,
            payload: d.bytes("payload")?,
        };
        if d.remaining() != 0 {
            return Err(WireError(format!("{} trailing bytes after WireMsg", d.remaining())));
        }
        Ok(msg)
    }
}

/// Encode a `u64` slice with a `u32` length prefix. The `ckpt` codec
/// carries `f64` slices and coordinate triples natively; histogram-style
/// payloads (RDF bins, contact occupancy counts) are `u64` vectors, so the
/// length-prefixed form lives here next to the codecs that consume it.
pub fn put_u64s(e: &mut Enc, v: &[u64]) {
    assert!(v.len() <= u32::MAX as usize, "u64 slice too long for wire");
    e.u32(v.len() as u32);
    for x in v {
        e.u64(*x);
    }
}

/// Decode a `u64` slice written by [`put_u64s`]; `what` names the field in
/// truncation errors.
pub fn get_u64s(d: &mut Dec, what: &str) -> Result<Vec<u64>, WireError> {
    let n = d.u32(what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(d.u64(what)?);
    }
    Ok(out)
}

/// Frames larger than this are rejected as corrupt rather than allocated.
pub const MAX_FRAME: usize = 1 << 30;

/// Encode `body` as one checksummed frame: `u32 len · u64 crc64 · body`.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc64(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Write one frame to `w` (single `write_all` so a frame is never
/// interleaved when exactly one thread owns the stream).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(body))
}

/// Read one frame from `r`. Returns `Ok(None)` on clean EOF (no bytes at
/// the frame boundary); a CRC mismatch, oversized length, or mid-frame
/// EOF is an `InvalidData`/`UnexpectedEof` error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 12];
    // Distinguish clean EOF (zero bytes read) from a torn header.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("EOF inside frame header ({got}/12 bytes)"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let stored_crc = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    // The body grows with the bytes that arrive, not with the length the
    // header claims.
    let mut body = Vec::new();
    if r.take(len as u64).read_to_end(&mut body)? < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame body"));
    }
    let computed = crc64(&body);
    if computed != stored_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: stored {stored_crc:016x}, computed {computed:016x}"),
        ));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ObjId;

    #[test]
    fn entry_table_registers_dense_ids_and_looks_up_names() {
        let mut t = EntryTable::new();
        let a = t.register("start");
        let b = t.register("forces");
        assert_eq!((a, b), (EntryId(0), EntryId(1)));
        assert_eq!(t.name(b), "forces");
        assert_eq!(t.lookup("start"), Some(a));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.name(EntryId(9)), "?");
        // Deref keeps &[String] consumers working.
        let names: &[String] = &t;
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn wire_msg_roundtrips_bit_exactly() {
        let m = WireMsg {
            to: ObjId(7),
            entry: EntryId(3),
            src: 1,
            dst: 2,
            priority: -10,
            bytes: 4096,
            path: 1.5e-3,
            payload: vec![1, 2, 3, 255, 0],
        };
        let packed = m.pack();
        assert_eq!(WireMsg::unpack(&packed).unwrap(), m);
        // Trailing garbage is rejected, not ignored.
        let mut long = packed.clone();
        long.push(0);
        assert!(WireMsg::unpack(&long).is_err());
        assert!(WireMsg::unpack(&packed[..packed.len() - 1]).is_err());
    }

    #[test]
    fn u64_slices_roundtrip_and_reject_truncation() {
        let v = vec![0u64, 1, u64::MAX, 42];
        let mut e = Enc::new();
        put_u64s(&mut e, &v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_u64s(&mut d, "hist").unwrap(), v);
        assert_eq!(d.remaining(), 0);
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert!(get_u64s(&mut d, "hist").is_err());
    }

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn frame_crc_rejects_a_flipped_bit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn torn_frame_is_an_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap();
        let cut = &buf[..buf.len() - 3];
        assert!(read_frame(&mut &cut[..]).is_err());
        let cut = &buf[..7]; // inside the header
        assert!(read_frame(&mut &cut[..]).is_err());
    }

    /// A header claiming `MAX_FRAME` bytes followed by EOF: the reader is
    /// never asked to fill a buffer near the claimed size.
    #[test]
    fn a_huge_claimed_length_allocates_only_what_arrives() {
        struct Probe {
            bytes: Vec<u8>,
            largest_buf: usize,
        }
        impl Read for Probe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest_buf = self.largest_buf.max(buf.len());
                let n = buf.len().min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes.drain(..n);
                Ok(n)
            }
        }
        let mut header = (MAX_FRAME as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&0u64.to_le_bytes());
        let mut r = Probe { bytes: header, largest_buf: 0 };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(r.largest_buf <= 64 << 10, "reader handed {} bytes", r.largest_buf);
    }
}
