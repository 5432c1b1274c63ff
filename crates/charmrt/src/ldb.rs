//! The load-balancing measurement database (§2.2, §3.2).
//!
//! The runtime automatically instruments every object: each entry-method
//! execution's CPU time is attributed to the object (for migratable objects)
//! or to the owning PE's *background load* (for non-migratable ones, e.g.
//! inter-cube bond computes and patch integration). Strategies consume a
//! [`LdbSnapshot`] and produce a new object→PE mapping; the framework
//! applies it by migrating objects.

use crate::msg::{ObjId, Pe};
use crate::wire::{Dec, Enc, WireError};

/// Per-object measured data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjLoad {
    pub obj: ObjId,
    pub pe: Pe,
    /// Accumulated handler CPU time since registration, seconds.
    pub load: f64,
    pub migratable: bool,
}

/// A point-in-time copy of the database, handed to strategies.
#[derive(Debug, Clone, Default)]
pub struct LdbSnapshot {
    pub objects: Vec<ObjLoad>,
    /// Non-migratable ("background") load per PE, seconds.
    pub background: Vec<f64>,
}

impl LdbSnapshot {
    /// Total load per PE (background + migratable objects currently there).
    pub fn pe_loads(&self, n_pes: usize) -> Vec<f64> {
        let mut loads = self.background.clone();
        loads.resize(n_pes, 0.0);
        for o in &self.objects {
            loads[o.pe] += o.load;
        }
        loads
    }

    /// Max/avg load ratio — 1.0 is perfectly balanced.
    pub fn imbalance_ratio(&self, n_pes: usize) -> f64 {
        let loads = self.pe_loads(n_pes);
        let avg = loads.iter().sum::<f64>() / n_pes.max(1) as f64;
        if avg <= 0.0 {
            1.0
        } else {
            loads.iter().copied().fold(0.0, f64::max) / avg
        }
    }
}

/// The live database maintained by the engine.
#[derive(Debug, Default)]
pub struct LdbDatabase {
    obj_load: Vec<f64>,
    migratable: Vec<bool>,
    background: Vec<f64>,
}

impl LdbDatabase {
    pub(crate) fn new(n_pes: usize) -> Self {
        LdbDatabase {
            obj_load: Vec::new(),
            migratable: Vec::new(),
            background: vec![0.0; n_pes],
        }
    }

    pub(crate) fn on_register(&mut self, migratable: bool) {
        self.obj_load.push(0.0);
        self.migratable.push(migratable);
    }

    /// Attribute `secs` of measured CPU time to `obj` on `pe`.
    pub(crate) fn attribute(&mut self, obj: ObjId, pe: Pe, secs: f64) {
        if self.migratable[obj.idx()] {
            self.obj_load[obj.idx()] += secs;
        } else {
            self.background[pe] += secs;
        }
    }

    /// The same objects with the same migratability and no measurements:
    /// one worker's share of the database, to be [`absorb`]ed back.
    ///
    /// [`absorb`]: LdbDatabase::absorb
    pub(crate) fn zeroed(&self) -> LdbDatabase {
        LdbDatabase {
            obj_load: vec![0.0; self.obj_load.len()],
            migratable: self.migratable.clone(),
            background: vec![0.0; self.background.len()],
        }
    }

    /// Add a worker's measured loads (same objects, same PEs) into this
    /// database.
    pub(crate) fn absorb(&mut self, o: &LdbDatabase) {
        assert_eq!(
            (self.obj_load.len(), self.background.len()),
            (o.obj_load.len(), o.background.len()),
            "absorbing loads of a different shape"
        );
        self.obj_load.iter_mut().zip(&o.obj_load).for_each(|(x, y)| *x += y);
        self.background.iter_mut().zip(&o.background).for_each(|(x, y)| *x += y);
    }

    /// Pack the measured loads (not the registrations, which both sides of
    /// a process boundary already share).
    pub(crate) fn pack_loads(&self, e: &mut Enc) {
        e.f64s(&self.obj_load);
        e.f64s(&self.background);
    }

    /// Inverse of [`LdbDatabase::pack_loads`].
    pub(crate) fn unpack_loads(&mut self, d: &mut Dec) -> Result<(), WireError> {
        self.obj_load = d.f64s("obj_load")?;
        self.background = d.f64s("background")?;
        Ok(())
    }

    /// Snapshot the database for a strategy. `obj_pe` supplies the current
    /// object placement (owned by the engine).
    pub fn snapshot(&self, obj_pe: &[Pe]) -> LdbSnapshot {
        LdbSnapshot {
            objects: (0..self.obj_load.len())
                .map(|i| ObjLoad {
                    obj: ObjId(i as u32),
                    pe: obj_pe[i],
                    load: self.obj_load[i],
                    migratable: self.migratable[i],
                })
                .collect(),
            background: self.background.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_splits_migratable_and_background() {
        let mut db = LdbDatabase::new(2);
        db.on_register(true); // obj 0
        db.on_register(false); // obj 1
        db.attribute(ObjId(0), 0, 1.5);
        db.attribute(ObjId(1), 1, 2.5);
        let snap = db.snapshot(&[0, 1]);
        assert_eq!(snap.objects[0].load, 1.5);
        assert_eq!(snap.objects[1].load, 0.0); // went to background
        assert_eq!(snap.background[1], 2.5);
    }

    #[test]
    fn pe_loads_combine_background_and_objects() {
        let mut db = LdbDatabase::new(2);
        db.on_register(true);
        db.attribute(ObjId(0), 0, 3.0);
        db.background[1] = 1.0;
        let snap = db.snapshot(&[1]); // object now lives on PE 1
        let loads = snap.pe_loads(2);
        assert_eq!(loads, vec![0.0, 4.0]);
        assert!((snap.imbalance_ratio(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_load_has_unit_ratio() {
        let mut db = LdbDatabase::new(2);
        db.on_register(true);
        db.on_register(true);
        db.attribute(ObjId(0), 0, 2.0);
        db.attribute(ObjId(1), 1, 2.0);
        let snap = db.snapshot(&[0, 1]);
        assert!((snap.imbalance_ratio(2) - 1.0).abs() < 1e-12);
    }
}
