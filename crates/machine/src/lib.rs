//! # machine — parallel machine performance models
//!
//! The paper's results span three platforms: Sandia's ASCI-Red (333 MHz
//! Pentium II Xeon, up to 2048 PEs used), the PSC Cray T3E-900, and the NCSA
//! SGI Origin 2000 (250 MHz). None of those machines exist anymore, so the
//! discrete-event backend of `charmrt` consumes a [`MachineModel`]: a small
//! set of parameters describing per-processor compute speed and the cost of
//! messaging, in the classic LogP/α-β spirit:
//!
//! * a task of `w` abstract *work units* executes in `w * seconds_per_work`
//!   seconds on one PE;
//! * sending a message costs the sender `send_overhead_s + bytes * send_per_byte_s`
//!   of CPU time, spends `latency_s + bytes * wire_per_byte_s` on the wire,
//!   and costs the receiver `recv_overhead_s` of CPU time before the handler
//!   runs.
//!
//! Presets are calibrated so that the single-processor time per step of the
//! ApoA-I benchmark matches the paper (57.1 s on ASCI-Red, 24.4 s on the
//! Origin 2000), with communication constants representative of each
//! machine's published MPI latency/bandwidth class. The *shape* of the
//! speedup curves (where communication overhead bites) is what these models
//! preserve; see DESIGN.md §2.

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
/// Cost parameters for one parallel platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Human-readable name used in benchmark output.
    pub name: &'static str,
    /// Seconds per abstract work unit (one work unit ≈ one non-bonded pair
    /// interaction's worth of arithmetic).
    pub seconds_per_work: f64,
    /// Sender CPU overhead per message, seconds.
    pub send_overhead_s: f64,
    /// Receiver CPU overhead per message, seconds.
    pub recv_overhead_s: f64,
    /// Wire latency per message, seconds.
    pub latency_s: f64,
    /// Sender CPU cost per byte (packing / copying), seconds.
    pub send_per_byte_s: f64,
    /// Wire transfer time per byte, seconds.
    pub wire_per_byte_s: f64,
    /// Fixed per-message allocation+packing cost charged when a multicast is
    /// *not* using the optimized single-pack path (§4.2.3), seconds.
    pub pack_overhead_s: f64,
}

impl MachineModel {
    /// CPU time for a task of `work` abstract work units.
    #[inline]
    pub fn task_time(&self, work: f64) -> f64 {
        work * self.seconds_per_work
    }

    /// Sender-side CPU time for one message of `bytes` bytes.
    #[inline]
    pub fn send_time(&self, bytes: usize) -> f64 {
        self.send_overhead_s + bytes as f64 * self.send_per_byte_s
    }

    /// Wire time (latency + transfer) for one message.
    #[inline]
    pub fn wire_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 * self.wire_per_byte_s
    }

    /// Receiver-side CPU time for one message.
    #[inline]
    pub fn recv_time(&self) -> f64 {
        self.recv_overhead_s
    }

    /// Scale compute speed by `f` (>1 = faster CPU). Returns a new model.
    pub fn with_cpu_scale(mut self, f: f64) -> Self {
        assert!(f > 0.0);
        self.seconds_per_work /= f;
        self
    }
}

/// Per-pair work-unit calibration: `mdcore::nonbonded::FLOPS_PER_PAIR` FLOPs
/// per pair, so `seconds_per_work = FLOPS_PER_PAIR / flops_per_second_effective`.
/// The effective MD FLOP rates below come straight from the paper's tables
/// (e.g. Table 2: 57.1 s/step at 0.0480 GFLOPS ⇒ ASCI-Red sustains 48
/// MFLOPS of MD arithmetic per PE; Table 6: Origin 2000 sustains 112).
pub mod presets {
    use super::MachineModel;

    /// Sandia ASCI-Red: 333 MHz Pentium II Xeon, cut-through mesh network.
    /// Sustained MD rate ≈ 48 MFLOPS/PE (Table 2). MPI-class overheads of the
    /// era: ~12 µs per message software overhead, ~20 µs latency,
    /// ~330 MB/s links.
    pub fn asci_red() -> MachineModel {
        MachineModel {
            name: "ASCI-Red",
            seconds_per_work: 45.0 / 48.0e6,
            send_overhead_s: 12.0e-6,
            recv_overhead_s: 12.0e-6,
            latency_s: 20.0e-6,
            // User-level packing on a 333 MHz Xeon moved well under 100 MB/s
            // once allocation is included; this is what makes the naive
            // multicast double the integration entry (§4.2.3).
            send_per_byte_s: 12.0e-9,
            wire_per_byte_s: 3.0e-9,
            pack_overhead_s: 40.0e-6,
        }
    }

    /// PSC Cray T3E-900: 450 MHz Alpha EV5, very low-latency torus (E-registers).
    /// Per-PE MD rate ≈ 64 MFLOPS (Table 5: 10.7 s/step on 4 PEs ⇒ ~0.256/4
    /// GFLOPS per PE), with markedly better communication than ASCI-Red —
    /// which is exactly why the paper sees better scalability there.
    pub fn t3e_900() -> MachineModel {
        MachineModel {
            name: "T3E-900",
            seconds_per_work: 45.0 / 64.0e6,
            send_overhead_s: 3.0e-6,
            recv_overhead_s: 3.0e-6,
            latency_s: 4.0e-6,
            send_per_byte_s: 2.5e-9,
            wire_per_byte_s: 2.9e-9,
            pack_overhead_s: 8.0e-6,
        }
    }

    /// NCSA SGI Origin 2000: 250 MHz R10000, ccNUMA shared memory.
    /// Fastest per-PE MD rate in the paper (≈ 112 MFLOPS, Table 6), moderate
    /// messaging costs through shared memory.
    pub fn origin2000() -> MachineModel {
        MachineModel {
            name: "Origin-2000",
            seconds_per_work: 45.0 / 112.0e6,
            send_overhead_s: 6.0e-6,
            recv_overhead_s: 6.0e-6,
            latency_s: 8.0e-6,
            send_per_byte_s: 5.0e-9,
            wire_per_byte_s: 2.5e-9,
            pack_overhead_s: 15.0e-6,
        }
    }

    /// A generic commodity cluster (for tests and ablations, not a paper
    /// table): modern-ish CPU, Ethernet-class latency.
    pub fn generic_cluster() -> MachineModel {
        MachineModel {
            name: "generic-cluster",
            seconds_per_work: 45.0 / 1.0e9,
            send_overhead_s: 5.0e-6,
            recv_overhead_s: 5.0e-6,
            latency_s: 15.0e-6,
            send_per_byte_s: 0.3e-9,
            wire_per_byte_s: 1.0e-9,
            pack_overhead_s: 5.0e-6,
        }
    }

    /// An idealized zero-communication-cost machine — useful in tests to
    /// check that the DES reduces to pure load-balance arithmetic.
    pub fn ideal() -> MachineModel {
        MachineModel {
            name: "ideal",
            seconds_per_work: 1.0e-6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
            latency_s: 0.0,
            send_per_byte_s: 0.0,
            wire_per_byte_s: 0.0,
            pack_overhead_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;

    #[test]
    fn task_time_scales_linearly() {
        let m = asci_red();
        assert!((m.task_time(2.0) - 2.0 * m.task_time(1.0)).abs() < 1e-18);
        assert_eq!(m.task_time(0.0), 0.0);
    }

    #[test]
    fn presets_have_expected_speed_ordering() {
        // Per-work compute: Origin fastest, then T3E, then ASCI-Red.
        assert!(origin2000().seconds_per_work < t3e_900().seconds_per_work);
        assert!(t3e_900().seconds_per_work < asci_red().seconds_per_work);
        // Communication: T3E clearly the best of the three.
        assert!(t3e_900().latency_s < origin2000().latency_s);
        assert!(origin2000().latency_s < asci_red().latency_s);
    }

    #[test]
    fn message_costs_include_per_byte_terms() {
        let m = asci_red();
        assert!(m.send_time(10_000) > m.send_time(0));
        assert!(m.wire_time(10_000) > m.wire_time(0));
        assert!((m.wire_time(0) - m.latency_s).abs() < 1e-18);
    }

    #[test]
    fn cpu_scale() {
        let m = asci_red().with_cpu_scale(2.0);
        assert!((m.task_time(1.0) - asci_red().task_time(1.0) / 2.0).abs() < 1e-18);
    }

    #[test]
    fn ideal_machine_has_free_messaging() {
        let m = ideal();
        assert_eq!(m.send_time(1_000_000), 0.0);
        assert_eq!(m.wire_time(1_000_000), 0.0);
        assert_eq!(m.recv_time(), 0.0);
    }

    #[test]
    fn apoa1_calibration_sanity() {
        // ApoA-I: ~57 s/step at ~0.048 GFLOPS on 1 ASCI-Red PE means about
        // 2.74 GFLOP/step ⇒ ~61 M pair interactions at 45 flops/pair. A task
        // of that much work should take ~57 s under the preset.
        let m = asci_red();
        let pairs = 2.74e9 / 45.0;
        let t = m.task_time(pairs);
        assert!((t - 57.1).abs() < 1.5, "calibrated 1-PE step time {t}");
    }
}
