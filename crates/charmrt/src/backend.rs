//! The one place that names the execution backends and builds one.

use crate::{Des, ProcRuntime, Runtime, ThreadRuntime};
use machine::MachineModel;
use std::path::Path;

/// Which execution substrate runs the chare graph ([`Runtime`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic discrete-event simulation under the machine model:
    /// object loads are *modeled* (declared work + messaging overheads).
    #[default]
    Des,
    /// Real OS worker threads, one per PE: object loads are *measured*
    /// wall-clock handler times.
    Threads,
    /// Real OS *processes*, one per PE, exchanging framed wire messages
    /// over Unix domain sockets ([`ProcRuntime`]). No shared address
    /// space: all cross-PE data travels as packed payload bytes, and
    /// fault-plan kills terminate real child processes. Linux/Unix only,
    /// and kill rules are the only fault rules it accepts.
    Proc,
}

impl Backend {
    /// Canonical config-file spelling (`des` | `threads` | `proc`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Des => "des",
            Backend::Threads => "threads",
            Backend::Proc => "proc",
        }
    }

    /// A fresh runtime of this kind with `n_pes` PEs. `machine` costs the
    /// DES's virtual time and `socket_dir` overrides where `proc` binds
    /// its per-PE sockets (default: a unique directory under the system
    /// temp dir); each is ignored by the backends it does not concern.
    pub fn runtime(
        self,
        n_pes: usize,
        machine: MachineModel,
        socket_dir: Option<&Path>,
    ) -> Box<dyn Runtime> {
        match self {
            Backend::Des => Box::new(Des::new(n_pes, machine)),
            Backend::Threads => Box::new(ThreadRuntime::new(n_pes)),
            Backend::Proc => {
                let mut rt = ProcRuntime::new(n_pes);
                if let Some(dir) = socket_dir {
                    rt.set_socket_dir(dir.to_path_buf());
                }
                Box::new(rt)
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    /// The one parser shared by CLI configs and job-spec JSON
    /// (case-insensitive; `Display` is the canonical inverse).
    fn from_str(s: &str) -> Result<Backend, String> {
        match s.to_ascii_lowercase().as_str() {
            "des" => Ok(Backend::Des),
            "threads" => Ok(Backend::Threads),
            "proc" => Ok(Backend::Proc),
            other => Err(format!("unknown backend '{other}' (des | threads | proc)")),
        }
    }
}
