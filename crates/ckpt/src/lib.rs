//! Checkpoint/restart snapshots for long parallel MD runs.
//!
//! A [`Snapshot`] captures everything the engine needs for a *deterministic*
//! resume: atom positions and velocities at a clean step boundary, the
//! global step counter, the load-drift RNG stream and per-compute drift
//! factors, the load balancer's measured loads (so LB does not restart
//! cold — the principle of persistence survives the crash), and hashes /
//! compatibility fields of the topology and run configuration so a restart
//! into the wrong system is refused with a descriptive error. Pair-list
//! caches are deliberately *not* captured: they are derived data and are
//! rebuilt bit-compatibly on the first step after resume.
//!
//! The on-disk format is a small, versioned, little-endian container:
//!
//! ```text
//! magic "NRCK" · version u32 · payload_len u64 · crc64(payload) · payload
//! ```
//!
//! The CRC-64/ECMA checksum detects any single-bit (hence any single-byte)
//! corruption; decoding a damaged file yields a named [`CkptError`], never
//! a silently wrong state. [`CheckpointDir`] layers an atomic
//! write-to-temporary-then-rename protocol on top, so a crash *during*
//! checkpointing can never corrupt the latest good snapshot.
//!
//! This crate is dependency-free; the engine converts its own vector types
//! to the `[f64; 3]` triples stored here.

mod crc64;
mod dir;
mod fnv;

pub use crc64::crc64;
pub use dir::CheckpointDir;
pub use fnv::{fnv1a64, Fnv1a64};

use std::fmt;

/// On-disk magic: "NRCK" (namd-repro checkpoint).
pub const MAGIC: [u8; 4] = *b"NRCK";
/// Current container version.
pub const VERSION: u32 = 1;

/// Everything needed to resume a run deterministically. See the crate docs
/// for what is deliberately *not* captured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Global completed position updates ("the trajectory is at step N").
    pub step: u64,
    /// FNV-1a hash of the topology, force field, and box — computed by the
    /// engine; a mismatch on restore is refused with
    /// [`CkptError::TopologyMismatch`].
    pub topo_hash: u64,
    /// Compatibility fields, checked individually on restore so a mismatch
    /// names the offending knob ([`CkptError::ConfigMismatch`]).
    pub cutoff: f64,
    /// Timestep, fs.
    pub dt_fs: f64,
    /// PE count the run was using (informational: a snapshot restores onto
    /// any PE count, since placement changes no bit of the trajectory).
    pub n_pes: u64,
    /// Box edge lengths, Å.
    pub box_lengths: [f64; 3],
    /// Positions, Å.
    pub positions: Vec<[f64; 3]>,
    /// Velocities, Å/fs.
    pub velocities: Vec<[f64; 3]>,
    /// Counted-mode load-drift RNG stream state.
    pub drift_rng: u64,
    /// Per-compute multiplicative drift factors.
    pub drift: Vec<f64>,
    /// Measured per-compute loads from the last LB harvest (seconds).
    pub loads: Vec<f64>,
    /// Measured per-PE background loads from the last LB harvest.
    pub background: Vec<f64>,
    /// Opaque caller payload (the CLI stores its energy baseline, frame
    /// high-water mark and migration cadence here).
    pub extra: Vec<u8>,
}

/// Named decode/IO/compatibility failures. Every corruption mode maps to a
/// specific variant — a bad snapshot is never silently resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// Filesystem error, with the path and operation that failed.
    Io(String),
    /// The file does not start with the `NRCK` magic.
    BadMagic([u8; 4]),
    /// Container version not understood by this build.
    UnsupportedVersion(u32),
    /// File shorter/longer than its header claims, or a field ran off the
    /// end of the payload.
    Truncated(String),
    /// Stored CRC-64 does not match the payload.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Snapshot was taken of a different system.
    TopologyMismatch { snapshot: u64, current: u64 },
    /// A run-configuration field differs; the string names it.
    ConfigMismatch(String),
    /// No (valid) checkpoint found in the directory.
    NoCheckpoint(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CkptError::BadMagic(m) => {
                write!(f, "not a checkpoint file: bad magic {m:02x?} (want \"NRCK\")")
            }
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CkptError::Truncated(m) => write!(f, "corrupt checkpoint: {m}"),
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt checkpoint: CRC-64 mismatch (stored {stored:016x}, \
                 computed {computed:016x})"
            ),
            CkptError::TopologyMismatch { snapshot, current } => write!(
                f,
                "checkpoint is for a different system: topology hash {snapshot:016x} \
                 != current {current:016x}"
            ),
            CkptError::ConfigMismatch(m) => {
                write!(f, "checkpoint configuration mismatch: {m}")
            }
            CkptError::NoCheckpoint(m) => write!(f, "no usable checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Little-endian payload writer — the one serialization primitive shared
/// by checkpoint snapshots and (via the `charmrt` wire layer) every
/// runtime message payload.
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// Start an empty payload.
    pub fn new() -> Enc {
        Enc(Vec::new())
    }
    /// Start a payload with a capacity hint.
    pub fn with_capacity(n: usize) -> Enc {
        Enc(Vec::with_capacity(n))
    }
    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    pub fn triples(&mut self, v: &[[f64; 3]]) {
        self.u64(v.len() as u64);
        for t in v {
            for &x in t {
                self.f64(x);
            }
        }
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
}

impl Default for Enc {
    fn default() -> Self {
        Enc::new()
    }
}

/// Little-endian payload reader over a checksummed slice. Every accessor
/// is bounds-checked and returns a named [`CkptError::Truncated`] instead
/// of panicking, so a corrupt payload can never take the process down.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        if self.buf.len() - self.pos < n {
            return Err(CkptError::Truncated(format!(
                "payload ends inside {what} (need {n} bytes at offset {})",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub fn u8(&mut self, what: &str) -> Result<u8, CkptError> {
        Ok(self.take(1, what)?[0])
    }
    pub fn u16(&mut self, what: &str) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    pub fn u32(&mut self, what: &str) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    pub fn u64(&mut self, what: &str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    pub fn i32(&mut self, what: &str) -> Result<i32, CkptError> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    pub fn i64(&mut self, what: &str) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    pub fn f64(&mut self, what: &str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    /// Bounded length prefix: a corrupted length must not drive an
    /// out-of-memory allocation before the bounds check catches it.
    fn len(&mut self, what: &str) -> Result<usize, CkptError> {
        let n = self.u64(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(8).map(|b| b > remaining).unwrap_or(true) {
            return Err(CkptError::Truncated(format!(
                "{what} length {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(n)
    }
    pub fn f64s(&mut self, what: &str) -> Result<Vec<f64>, CkptError> {
        let n = self.len(what)?;
        (0..n).map(|_| self.f64(what)).collect()
    }
    pub fn triples(&mut self, what: &str) -> Result<Vec<[f64; 3]>, CkptError> {
        let n = self.u64(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(24).map(|b| b > remaining).unwrap_or(true) {
            return Err(CkptError::Truncated(format!(
                "{what} length {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        (0..n).map(|_| Ok([self.f64(what)?, self.f64(what)?, self.f64(what)?])).collect()
    }
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>, CkptError> {
        let n = self.u64(what)? as usize;
        if n > self.buf.len() - self.pos {
            return Err(CkptError::Truncated(format!(
                "{what} length {n} exceeds remaining payload"
            )));
        }
        Ok(self.take(n, what)?.to_vec())
    }
}

impl Snapshot {
    /// Serialize to the versioned, checksummed container.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Enc(Vec::with_capacity(64 + 48 * self.positions.len()));
        p.u64(self.step);
        p.u64(self.topo_hash);
        p.f64(self.cutoff);
        p.f64(self.dt_fs);
        p.u64(self.n_pes);
        for &l in &self.box_lengths {
            p.f64(l);
        }
        p.triples(&self.positions);
        p.triples(&self.velocities);
        p.u64(self.drift_rng);
        p.f64s(&self.drift);
        p.f64s(&self.loads);
        p.f64s(&self.background);
        p.bytes(&self.extra);
        let payload = p.0;

        let mut out = Enc(Vec::with_capacity(payload.len() + 24));
        out.0.extend_from_slice(&MAGIC);
        out.u32(VERSION);
        out.u64(payload.len() as u64);
        out.u64(crc64(&payload));
        out.0.extend_from_slice(&payload);
        out.0
    }

    /// Decode a container produced by [`Snapshot::encode`]. Every corruption
    /// mode returns a named error: bad magic, unknown version, length
    /// mismatch, checksum mismatch, or a field running off the payload.
    pub fn decode(data: &[u8]) -> Result<Snapshot, CkptError> {
        if data.len() < 4 {
            return Err(CkptError::Truncated(format!(
                "file is {} bytes, shorter than the magic",
                data.len()
            )));
        }
        let magic: [u8; 4] = data[..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(CkptError::BadMagic(magic));
        }
        if data.len() < 24 {
            return Err(CkptError::Truncated(format!(
                "file is {} bytes, shorter than the header",
                data.len()
            )));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let stored_crc = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let payload = &data[24..];
        if payload.len() as u64 != payload_len {
            return Err(CkptError::Truncated(format!(
                "header claims a {payload_len}-byte payload, file carries {}",
                payload.len()
            )));
        }
        let computed = crc64(payload);
        if computed != stored_crc {
            return Err(CkptError::ChecksumMismatch { stored: stored_crc, computed });
        }

        let mut d = Dec { buf: payload, pos: 0 };
        let snap = Snapshot {
            step: d.u64("step")?,
            topo_hash: d.u64("topo_hash")?,
            cutoff: d.f64("cutoff")?,
            dt_fs: d.f64("dt_fs")?,
            n_pes: d.u64("n_pes")?,
            box_lengths: [
                d.f64("box_lengths")?,
                d.f64("box_lengths")?,
                d.f64("box_lengths")?,
            ],
            positions: d.triples("positions")?,
            velocities: d.triples("velocities")?,
            drift_rng: d.u64("drift_rng")?,
            drift: d.f64s("drift")?,
            loads: d.f64s("loads")?,
            background: d.f64s("background")?,
            extra: d.bytes("extra")?,
        };
        if d.pos != payload.len() {
            return Err(CkptError::Truncated(format!(
                "{} unread bytes after the last field",
                payload.len() - d.pos
            )));
        }
        Ok(snap)
    }

    /// Verify this snapshot belongs to the system/configuration described
    /// by the arguments; a mismatch names what differs.
    pub fn check_compatible(
        &self,
        topo_hash: u64,
        cutoff: f64,
        dt_fs: f64,
        box_lengths: [f64; 3],
    ) -> Result<(), CkptError> {
        if self.topo_hash != topo_hash {
            return Err(CkptError::TopologyMismatch {
                snapshot: self.topo_hash,
                current: topo_hash,
            });
        }
        let field = |name: &str, snap: f64, cur: f64| -> Result<(), CkptError> {
            if snap.to_bits() != cur.to_bits() {
                return Err(CkptError::ConfigMismatch(format!(
                    "{name}: snapshot has {snap}, run has {cur}"
                )));
            }
            Ok(())
        };
        field("cutoff", self.cutoff, cutoff)?;
        field("timestep (fs)", self.dt_fs, dt_fs)?;
        for (axis, (s, c)) in ["x", "y", "z"]
            .iter()
            .zip(self.box_lengths.iter().zip(box_lengths.iter()))
        {
            field(&format!("box length {axis} (Å)"), *s, *c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            step: 42,
            topo_hash: 0xDEAD_BEEF_0123_4567,
            cutoff: 9.0,
            dt_fs: 1.0,
            n_pes: 4,
            box_lengths: [30.0, 31.5, 29.25],
            positions: vec![[1.0, 2.0, 3.0], [-4.5, 0.0, 6.25]],
            velocities: vec![[0.1, -0.2, 0.3], [0.0, 0.5, -0.5]],
            drift_rng: 0x5EED_5EED,
            drift: vec![1.0, 1.01, 0.99],
            loads: vec![0.5, 0.25],
            background: vec![0.0, 0.125],
            extra: b"caller payload".to_vec(),
        }
    }

    #[test]
    fn roundtrip_identity() {
        let s = sample();
        let decoded = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        // Bit-exact on the floats, not just PartialEq.
        assert_eq!(decoded.positions[1][2].to_bits(), s.positions[1][2].to_bits());
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::default();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn bad_magic_is_named() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic(_))));
    }

    #[test]
    fn unknown_version_is_named() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_named() {
        let bytes = sample().encode();
        let cut = &bytes[..bytes.len() - 5];
        assert!(matches!(Snapshot::decode(cut), Err(CkptError::Truncated(_))));
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn compatibility_mismatches_are_descriptive() {
        let s = sample();
        let err = s.check_compatible(1, s.cutoff, s.dt_fs, s.box_lengths).unwrap_err();
        assert!(matches!(err, CkptError::TopologyMismatch { .. }));
        let err = s.check_compatible(s.topo_hash, 12.0, s.dt_fs, s.box_lengths).unwrap_err();
        assert!(err.to_string().contains("cutoff"), "{err}");
        let err = s.check_compatible(s.topo_hash, s.cutoff, 0.5, s.box_lengths).unwrap_err();
        assert!(err.to_string().contains("timestep"), "{err}");
        s.check_compatible(s.topo_hash, s.cutoff, s.dt_fs, s.box_lengths).unwrap();
    }
}
