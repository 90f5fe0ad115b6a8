//! Deterministic memory accounting.
//!
//! Scaling a run to 10^6 clients makes memory the binding resource, and a
//! number nobody can see is a number nobody budgets. This module defines the
//! workspace-wide bytes-accounting contract: [`MemFootprint::mem_bytes`]
//! reports the bytes a structure holds in reserved container capacity.
//!
//! The contract is **deterministic**: implementations derive the figure from
//! container capacities (`Vec::capacity`, `BinaryHeap::capacity`, ...), which
//! are pure functions of the allocation history — never from wall-clock
//! sampling or allocator globals, both of which vary run to run and would
//! poison output paths that must stay bit-identical. The numbers are
//! *steady-state reservations*, not RSS: transient allocator overhead and
//! stack frames are out of scope, which is exactly what a regression gate
//! wants — a figure that moves only when the code's data layout moves.

/// Deterministic steady-state byte accounting for a structure.
///
/// # Examples
///
/// ```
/// use spider_simkit::{Engine, MemFootprint, SimTime};
///
/// let mut eng: Engine<u64> = Engine::new();
/// let mut cycle = |eng: &mut Engine<u64>| {
///     let base = eng.now();
///     for i in 0..1024 {
///         eng.schedule(base + spider_simkit::SimDuration::from_secs(i + 1), i);
///     }
///     eng.run_to_completion(|_, _| {});
///     eng.mem_bytes()
/// };
/// // The heap retains its capacity for reuse: after the first
/// // load/drain cycle the footprint is flat forever.
/// let steady = cycle(&mut eng);
/// assert_eq!(cycle(&mut eng), steady);
/// ```
pub trait MemFootprint {
    /// Bytes held in reserved container capacity, recursively over owned
    /// storage. Deterministic: a pure function of the structure's allocation
    /// history, suitable for gauges and regression benches.
    fn mem_bytes(&self) -> u64;
}

/// Bytes reserved by a container holding `capacity` elements of type `T`.
///
/// The building block `mem_bytes` implementations sum: pass each
/// `Vec`/`BinaryHeap` capacity through with its element type.
#[must_use]
pub const fn slab_bytes<T>(capacity: usize) -> u64 {
    (capacity * std::mem::size_of::<T>()) as u64
}

impl<T> MemFootprint for Vec<T> {
    fn mem_bytes(&self) -> u64 {
        slab_bytes::<T>(self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_bytes_scales_with_capacity_and_element_size() {
        assert_eq!(slab_bytes::<u8>(16), 16);
        assert_eq!(slab_bytes::<u64>(16), 128);
        assert_eq!(slab_bytes::<f64>(0), 0);
    }

    #[test]
    fn vec_footprint_tracks_capacity_not_length() {
        let mut v: Vec<u64> = Vec::with_capacity(32);
        assert_eq!(v.mem_bytes(), 256);
        v.push(1);
        assert_eq!(v.mem_bytes(), 256, "length changes do not move the gauge");
        v.clear();
        assert_eq!(v.mem_bytes(), 256, "capacity survives a clear");
    }
}
