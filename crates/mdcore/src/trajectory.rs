//! Trajectory output and structural analysis.
//!
//! * [`XyzWriter`] — the universal plain-text XYZ trajectory format, one
//!   frame per MD snapshot (readable by VMD, the visualizer built alongside
//!   NAMD in the same group).
//! * [`Trajectory`] / [`TrajectoryWriter`] — the typed on-disk trajectory
//!   API: frame-indexed random access for analysis, atomic whole-frame
//!   append plus truncate-to-complete-frames for the runner's
//!   crash-recovery path. Both speak the same XYZ byte format as
//!   [`XyzWriter`], so existing files and byte-comparison tests are
//!   unaffected.
//! * [`radial_distribution`] — g(r) between two atom selections; the
//!   standard check that a simulated liquid actually has liquid structure.
//! * [`mean_squared_displacement`] — MSD over stored frames (diffusive
//!   behaviour, with unwrapped coordinates).

use crate::pbc::Cell;
use crate::system::System;
use crate::vec3::Vec3;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Writes XYZ-format trajectory frames to any `Write` sink.
pub struct XyzWriter<W: Write> {
    sink: W,
    /// Element label per atom (defaults to "X" when not provided).
    labels: Vec<String>,
    frames_written: usize,
}

impl<W: Write> XyzWriter<W> {
    /// Create a writer with per-atom element labels.
    pub fn new(sink: W, labels: Vec<String>) -> Self {
        XyzWriter { sink, labels, frames_written: 0 }
    }

    /// Create a writer that derives labels from atom masses (O/H/C/N-ish).
    pub fn from_system(sink: W, system: &System) -> Self {
        XyzWriter::new(sink, mass_labels(system))
    }

    /// Write one frame. `comment` lands on the XYZ comment line.
    pub fn write_frame(
        &mut self,
        positions: &[Vec3],
        comment: &str,
    ) -> std::io::Result<()> {
        assert_eq!(positions.len(), self.labels.len(), "frame size mismatch");
        self.sink.write_all(format_frame(&self.labels, positions, comment).as_bytes())?;
        self.frames_written += 1;
        Ok(())
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> usize {
        self.frames_written
    }

    /// Finish and return the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Element labels derived from atom masses (O/H/Na/C, else "X").
pub fn mass_labels(system: &System) -> Vec<String> {
    system
        .topology
        .atoms
        .iter()
        .map(|a| {
            match a.mass {
                m if (m - 1.008).abs() < 0.1 => "H",
                m if (m - 15.9994).abs() < 0.1 => "O",
                m if (m - 22.99).abs() < 0.1 => "Na",
                m if (12.0..=14.5).contains(&m) => "C",
                _ => "X",
            }
            .to_string()
        })
        .collect()
}

/// Render one XYZ frame (`n`, comment, `label x y z` × n) as the exact
/// byte sequence the trajectory files carry. One frame is always a whole
/// number of newline-terminated lines.
fn format_frame(labels: &[String], positions: &[Vec3], comment: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(32 + positions.len() * 48);
    writeln!(out, "{}", positions.len()).unwrap();
    writeln!(out, "{comment}").unwrap();
    for (p, l) in positions.iter().zip(labels) {
        writeln!(out, "{l} {:.6} {:.6} {:.6}", p.x, p.y, p.z).unwrap();
    }
    out
}

/// Lines per on-disk frame: count line + comment line + one line per atom.
fn lines_per_frame(n_atoms: usize) -> usize {
    n_atoms + 2
}

/// Scan an XYZ file and return the byte offset of each *complete* frame
/// boundary: `offsets[k]` is where frame `k` starts, and the final element
/// is the end of the last complete frame (anything past it is a torn
/// frame). Frames are counted by newline-terminated lines, `n_atoms + 2`
/// lines each, matching what the writer emits.
fn scan_complete_frames(bytes: &[u8], n_atoms: usize) -> Vec<u64> {
    let lpf = lines_per_frame(n_atoms);
    let mut offsets = vec![0u64];
    let mut lines_in_frame = 0usize;
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            lines_in_frame += 1;
            if lines_in_frame == lpf {
                offsets.push(i as u64 + 1);
                lines_in_frame = 0;
            }
        }
    }
    offsets
}

/// A read-only, frame-indexed view of an XYZ trajectory file.
///
/// `open` scans the file once to index complete-frame byte offsets (a torn
/// trailing frame from a crashed run is ignored, mirroring the writer's
/// recovery contract); [`read_frame`](Trajectory::read_frame) then seeks
/// straight to any frame. Labels and the atom count come from frame 0 and
/// every frame is checked against them, so a file whose frames disagree is
/// rejected up front instead of producing silently misaligned analysis.
pub struct Trajectory {
    file: std::fs::File,
    path: PathBuf,
    n_atoms: usize,
    labels: Vec<String>,
    /// Start offset of each complete frame, plus the end-of-last-frame
    /// sentinel (`offsets.len() == len() + 1`).
    offsets: Vec<u64>,
}

impl Trajectory {
    /// Open and index a trajectory file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Trajectory> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        // Frame 0 header tells us the atom count; the labels come from its
        // atom lines.
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| bad(format!("{}: not UTF-8 text", path.display())))?;
        let mut lines = text.lines();
        let n_atoms: usize = match lines.next() {
            None => 0, // empty file = empty trajectory
            Some(l) => l.trim().parse().map_err(|_| {
                bad(format!("{}: bad atom count line {l:?}", path.display()))
            })?,
        };
        let offsets = scan_complete_frames(&bytes, n_atoms);
        let mut labels = Vec::with_capacity(n_atoms);
        if offsets.len() > 1 {
            let _comment = lines.next();
            for _ in 0..n_atoms {
                let l = lines.next().ok_or_else(|| {
                    bad(format!("{}: frame 0 truncated", path.display()))
                })?;
                labels.push(l.split_whitespace().next().unwrap_or("X").to_string());
            }
        }
        let traj = Trajectory { file, path, n_atoms, labels, offsets };
        // Validate every complete frame's count line up front.
        for k in 0..traj.len() {
            let start = traj.offsets[k] as usize;
            let end = traj.offsets[k + 1] as usize;
            let head = std::str::from_utf8(&bytes[start..end])
                .ok()
                .and_then(|s| s.lines().next())
                .unwrap_or("");
            let n: usize = head.trim().parse().map_err(|_| {
                bad(format!("{}: frame {k} bad count line {head:?}", traj.path.display()))
            })?;
            if n != n_atoms {
                return Err(bad(format!(
                    "{}: frame {k} has {n} atoms, frame 0 has {n_atoms}",
                    traj.path.display()
                )));
            }
        }
        Ok(traj)
    }

    /// Number of complete frames.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atoms per frame.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Element label per atom (from frame 0).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Read frame `idx` (random access: one seek + one bounded read).
    pub fn read_frame(&mut self, idx: usize) -> io::Result<Vec<Vec3>> {
        if idx >= self.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame {idx} out of range ({} frames)", self.len()),
            ));
        }
        let start = self.offsets[idx];
        let len = (self.offsets[idx + 1] - start) as usize;
        self.file.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf)?;
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let text = std::str::from_utf8(&buf)
            .map_err(|_| bad(format!("frame {idx}: not UTF-8")))?;
        let mut pos = Vec::with_capacity(self.n_atoms);
        for line in text.lines().skip(2) {
            let mut it = line.split_whitespace();
            let _label = it.next();
            let mut xyz = [0.0f64; 3];
            for c in &mut xyz {
                *c = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("frame {idx}: bad atom line {line:?}")))?;
            }
            pos.push(Vec3::new(xyz[0], xyz[1], xyz[2]));
        }
        if pos.len() != self.n_atoms {
            return Err(bad(format!(
                "frame {idx}: {} atom lines, expected {}",
                pos.len(),
                self.n_atoms
            )));
        }
        Ok(pos)
    }

    /// Read every frame in order.
    pub fn read_all(&mut self) -> io::Result<Vec<Vec<Vec3>>> {
        (0..self.len()).map(|k| self.read_frame(k)).collect()
    }
}

/// Appends whole XYZ frames to a file, one `write_all` per frame, so a
/// crash can tear at most the trailing frame — which
/// [`TrajectoryWriter::resume`] (and [`Trajectory::open`]) then drops by
/// truncating to the last complete-frame boundary.
pub struct TrajectoryWriter {
    file: std::fs::File,
    labels: Vec<String>,
    frames_written: usize,
}

impl TrajectoryWriter {
    /// Create (or overwrite) a trajectory file with per-atom labels.
    pub fn create(path: impl AsRef<Path>, labels: Vec<String>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(TrajectoryWriter { file, labels, frames_written: 0 })
    }

    /// Create with labels derived from `system` atom masses.
    pub fn create_for_system(path: impl AsRef<Path>, system: &System) -> io::Result<Self> {
        Ok(TrajectoryWriter {
            file: std::fs::File::create(path)?,
            labels: mass_labels(system),
            frames_written: 0,
        })
    }

    /// Reopen an existing trajectory for append after a restart: truncate
    /// to `keep.min(complete)` frames — dropping both a torn trailing
    /// frame and any frames written past the snapshot being resumed from —
    /// and return the writer plus the number of frames actually kept.
    pub fn resume(
        path: impl AsRef<Path>,
        labels: Vec<String>,
        keep: usize,
    ) -> io::Result<(Self, usize)> {
        let path = path.as_ref();
        let n_atoms = labels.len();
        let bytes = std::fs::read(path)?;
        let offsets = scan_complete_frames(&bytes, n_atoms);
        let kept = keep.min(offsets.len() - 1);
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(offsets[kept])?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok((TrajectoryWriter { file, labels, frames_written: kept }, kept))
    }

    /// [`resume`](TrajectoryWriter::resume) with labels from `system`.
    pub fn resume_for_system(
        path: impl AsRef<Path>,
        system: &System,
        keep: usize,
    ) -> io::Result<(Self, usize)> {
        TrajectoryWriter::resume(path, mass_labels(system), keep)
    }

    /// Append one frame as a single atomic-whole-frame write.
    pub fn write_frame(&mut self, positions: &[Vec3], comment: &str) -> io::Result<()> {
        assert_eq!(positions.len(), self.labels.len(), "frame size mismatch");
        self.file.write_all(format_frame(&self.labels, positions, comment).as_bytes())?;
        self.frames_written += 1;
        Ok(())
    }

    /// Frames in the file: kept on resume plus appended since.
    pub fn frames_written(&self) -> usize {
        self.frames_written
    }

    /// Flush and sync file contents to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Radial distribution function g(r) between selections `a` and `b` (atom
/// index lists), averaged over `frames`. Returns `(r_centers, g)` with
/// `n_bins` bins up to `r_max`.
pub fn radial_distribution(
    cell: &Cell,
    frames: &[Vec<Vec3>],
    a: &[u32],
    b: &[u32],
    r_max: f64,
    n_bins: usize,
) -> (Vec<f64>, Vec<f64>) {
    assert!(r_max > 0.0 && n_bins > 0 && !frames.is_empty());
    assert!(!a.is_empty() && !b.is_empty());
    let dr = r_max / n_bins as f64;
    let mut hist = vec![0.0f64; n_bins];
    let same = a == b;
    for frame in frames {
        for (ka, &i) in a.iter().enumerate() {
            for (kb, &j) in b.iter().enumerate() {
                if same && kb <= ka {
                    continue;
                }
                if i == j {
                    continue;
                }
                let r = cell.dist2(frame[i as usize], frame[j as usize]).sqrt();
                if r < r_max {
                    let bin = (r / dr) as usize;
                    // Each unordered pair counts for both directions.
                    hist[bin.min(n_bins - 1)] += if same { 2.0 } else { 1.0 };
                }
            }
        }
    }
    // Normalize by ideal-gas shell counts: ρ_b × shell volume × N_a.
    let volume = cell.volume();
    let rho_pairs = a.len() as f64 * b.len() as f64 / volume;
    let mut centers = Vec::with_capacity(n_bins);
    let mut g = Vec::with_capacity(n_bins);
    for k in 0..n_bins {
        let r0 = k as f64 * dr;
        let r1 = r0 + dr;
        let shell = 4.0 / 3.0 * std::f64::consts::PI * (r1.powi(3) - r0.powi(3));
        let ideal = rho_pairs * shell * frames.len() as f64;
        centers.push(r0 + 0.5 * dr);
        g.push(if ideal > 0.0 { hist[k] / ideal } else { 0.0 });
    }
    (centers, g)
}

/// Mean squared displacement per stored frame relative to frame 0, using
/// *unwrapped* displacement accumulation (consecutive-frame minimum images
/// summed, so box wrapping does not truncate diffusion paths).
pub fn mean_squared_displacement(cell: &Cell, frames: &[Vec<Vec3>]) -> Vec<f64> {
    if frames.is_empty() {
        return Vec::new();
    }
    let n = frames[0].len();
    let origin = &frames[0];
    let mut unwrapped: Vec<Vec3> = origin.clone();
    let mut out = vec![0.0];
    for w in frames.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        let mut acc = 0.0;
        for i in 0..n {
            let step = cell.min_image(next[i], prev[i]);
            unwrapped[i] += step;
            let d = unwrapped[i] - origin[i];
            acc += d.norm2();
        }
        out.push(acc / n as f64);
    }
    out
}

/// Self-diffusion coefficient from the MSD slope (Einstein relation,
/// `D = MSD/(6t)`), fit over the last half of the window. `frame_dt` is the
/// time between stored frames (fs); the result is in Å²/fs.
pub fn diffusion_coefficient(msd: &[f64], frame_dt: f64) -> f64 {
    assert!(msd.len() >= 4 && frame_dt > 0.0);
    // Least-squares slope of MSD vs t over the second half.
    let lo = msd.len() / 2;
    let pts: Vec<(f64, f64)> = (lo..msd.len())
        .map(|k| (k as f64 * frame_dt, msd[k]))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx).max(1e-300);
    slope / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xyz_format_is_correct() {
        let pos = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.5, 0.0, 2.25)];
        let mut w = XyzWriter::new(Vec::new(), vec!["O".into(), "H".into()]);
        w.write_frame(&pos, "frame 0").unwrap();
        w.write_frame(&pos, "frame 1").unwrap();
        assert_eq!(w.frames_written(), 2);
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[0], "2");
        assert_eq!(lines[1], "frame 0");
        assert!(lines[2].starts_with("O 1.000000 2.000000 3.000000"));
        assert!(lines[3].starts_with("H -1.500000"));
        assert_eq!(lines[4], "2");
    }

    #[test]
    fn labels_from_masses() {
        use crate::forcefield::ForceField;
        use crate::topology::{push_water, Topology};
        let mut topo = Topology::default();
        push_water(&mut topo, 0, 1);
        let sys = System::new(
            topo,
            ForceField::biomolecular(4.0),
            Cell::cube(10.0),
            vec![Vec3::splat(1.0), Vec3::splat(2.0), Vec3::splat(3.0)],
        );
        let w = XyzWriter::from_system(Vec::new(), &sys);
        assert_eq!(w.labels, vec!["O", "H", "H"]);
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mdcore_traj_{tag}_{}", std::process::id()))
    }

    #[test]
    fn trajectory_reader_random_accesses_written_frames() {
        let path = temp_path("rw");
        let labels = vec!["O".to_string(), "H".to_string()];
        let mut w = TrajectoryWriter::create(&path, labels.clone()).unwrap();
        for t in 0..4 {
            let pos = vec![
                Vec3::new(t as f64, 0.5, -1.25),
                Vec3::new(2.0, t as f64 * 0.1, 3.0),
            ];
            w.write_frame(&pos, &format!("frame {t}")).unwrap();
        }
        assert_eq!(w.frames_written(), 4);
        drop(w);
        let mut traj = Trajectory::open(&path).unwrap();
        assert_eq!(traj.len(), 4);
        assert_eq!(traj.n_atoms(), 2);
        assert_eq!(traj.labels(), &labels[..]);
        // Out-of-order random access.
        let f3 = traj.read_frame(3).unwrap();
        assert!((f3[0].x - 3.0).abs() < 1e-9);
        let f1 = traj.read_frame(1).unwrap();
        assert!((f1[1].y - 0.1).abs() < 1e-9);
        assert!(traj.read_frame(4).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_torn_and_excess_frames() {
        let path = temp_path("resume");
        let labels = vec!["X".to_string()];
        let mut w = TrajectoryWriter::create(&path, labels.clone()).unwrap();
        for t in 0..3 {
            w.write_frame(&[Vec3::splat(t as f64)], "c").unwrap();
        }
        drop(w);
        // Simulate a crash mid-frame: append a torn partial frame.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"1\ntorn comment\n").unwrap();
        }
        // The reader ignores the torn tail.
        assert_eq!(Trajectory::open(&path).unwrap().len(), 3);
        // Resume keeps min(keep, complete): the torn tail *and* frames past
        // the snapshot's high-water mark are dropped.
        let (w, kept) = TrajectoryWriter::resume(&path, labels.clone(), 5).unwrap();
        assert_eq!(kept, 3);
        drop(w);
        let (mut w, kept) = TrajectoryWriter::resume(&path, labels, 2).unwrap();
        assert_eq!(kept, 2);
        w.write_frame(&[Vec3::splat(9.0)], "rewritten").unwrap();
        assert_eq!(w.frames_written(), 3);
        drop(w);
        let mut traj = Trajectory::open(&path).unwrap();
        assert_eq!(traj.len(), 3);
        assert!((traj.read_frame(2).unwrap()[0].x - 9.0).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_inconsistent_frames() {
        let path = temp_path("badcount");
        std::fs::write(&path, "2\nc\nA 0 0 0\nB 1 1 1\n2\nc\nA 0 0 0\nx y z q\n").unwrap();
        // Frame 1's atom line is unparseable; indexing succeeds (the count
        // lines agree) but reading that frame fails loudly.
        let mut traj = Trajectory::open(&path).unwrap();
        assert!(traj.read_frame(0).is_ok());
        assert!(traj.read_frame(1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rdf_of_ideal_gas_is_flat() {
        // Uniform random points: g(r) ≈ 1 everywhere (beyond tiny-r noise).
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let cell = Cell::cube(20.0);
        let n = 400;
        let frames: Vec<Vec<Vec3>> = (0..8)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        Vec3::new(
                            rng.gen::<f64>() * 20.0,
                            rng.gen::<f64>() * 20.0,
                            rng.gen::<f64>() * 20.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        let (centers, g) = radial_distribution(&cell, &frames, &ids, &ids, 8.0, 16);
        for (r, gv) in centers.iter().zip(&g).skip(2) {
            assert!((gv - 1.0).abs() < 0.25, "g({r:.2}) = {gv}");
        }
    }

    #[test]
    fn rdf_of_a_lattice_has_a_peak_at_the_spacing() {
        // Simple cubic lattice, spacing 4: strong first peak near r = 4.
        let cell = Cell::cube(20.0);
        let mut pos = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..5 {
                    pos.push(Vec3::new(x as f64 * 4.0, y as f64 * 4.0, z as f64 * 4.0));
                }
            }
        }
        let ids: Vec<u32> = (0..pos.len() as u32).collect();
        let (centers, g) = radial_distribution(&cell, &[pos], &ids, &ids, 7.0, 35);
        // The first coordination shell (6 neighbours at r = 4) shows up as
        // a sharp peak in the 4.0-4.2 bin; below the lattice spacing g must
        // vanish (excluded zone).
        let peak: f64 = centers
            .iter()
            .zip(&g)
            .filter(|(r, _)| (3.9..4.3).contains(*r))
            .map(|(_, gv)| *gv)
            .fold(0.0, f64::max);
        assert!(peak > 3.0, "no first-shell peak near 4.0 (max there {peak})");
        for (r, gv) in centers.iter().zip(&g) {
            if *r < 3.5 {
                assert!(*gv < 0.2, "unexpected density at r={r}: {gv}");
            }
        }
    }

    #[test]
    fn msd_of_ballistic_motion_is_quadratic() {
        let cell = Cell::cube(100.0);
        let v = Vec3::new(0.3, 0.0, 0.0);
        let frames: Vec<Vec<Vec3>> = (0..10)
            .map(|t| vec![Vec3::new(5.0, 5.0, 5.0) + v * t as f64])
            .collect();
        let msd = mean_squared_displacement(&cell, &frames);
        for (t, m) in msd.iter().enumerate() {
            let expect = (0.3 * t as f64).powi(2);
            assert!((m - expect).abs() < 1e-9, "t={t}: {m} vs {expect}");
        }
    }

    #[test]
    fn diffusion_of_ballistic_motion_grows_with_window() {
        // Ballistic MSD = (vt)² has slope 2v²t — not a constant D, but the
        // estimator must return the slope/6 at the fit window, positive.
        let v = 0.2;
        let msd: Vec<f64> = (0..20).map(|t| (v * t as f64).powi(2)).collect();
        let d = diffusion_coefficient(&msd, 1.0);
        assert!(d > 0.0);
    }

    #[test]
    fn diffusion_of_linear_msd_is_exact() {
        // MSD = 6 D t exactly.
        let d_true = 3.2e-4;
        let msd: Vec<f64> = (0..30).map(|t| 6.0 * d_true * t as f64 * 2.0).collect();
        let d = diffusion_coefficient(&msd, 2.0);
        assert!((d - d_true).abs() < 1e-12, "{d} vs {d_true}");
    }

    #[test]
    fn msd_unwraps_through_the_boundary() {
        // An atom drifting +x crosses the periodic boundary; MSD must keep
        // growing rather than snapping back.
        let cell = Cell::cube(10.0);
        let frames: Vec<Vec<Vec3>> = (0..30)
            .map(|t| vec![cell.wrap(Vec3::new(0.5 + 0.9 * t as f64, 5.0, 5.0))])
            .collect();
        let msd = mean_squared_displacement(&cell, &frames);
        let expect = (0.9 * 29.0f64).powi(2);
        let got = *msd.last().unwrap();
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
    }
}
