//! Determinism under concurrency: every `par_*` operation must reproduce
//! the serial result bit-for-bit for every thread count — the property the
//! whole pipeline's "parallel paths are bit-identical" guarantee rests on.

use parallel::Pool;
use proptest::prelude::*;

/// The thread counts the issue calls out: serial, small, odd, and more
/// threads than the machine has cores.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Slice lengths crossing the interesting boundaries: empty, singleton,
/// chunk-boundary straddlers, and large enough for many chunks per thread.
const LENGTHS: [usize; 5] = [0, 1, 63, 64, 1000];

fn pools() -> Vec<Pool> {
    THREAD_COUNTS
        .iter()
        .map(|&t| Pool::with_threads(t))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_map_equals_serial_map(data in prop::collection::vec(any::<u64>(), 1000..1001), salt in any::<u64>()) {
        let pools = pools();
        let f = |&x: &u64| x.rotate_left(7) ^ salt;
        for &len in &LENGTHS {
            let slice = &data[..len];
            let serial: Vec<u64> = slice.iter().map(f).collect();
            for pool in &pools {
                prop_assert_eq!(&pool.par_map(slice, f), &serial, "len {} threads {}", len, pool.threads());
            }
        }
    }

    #[test]
    fn par_chunks_mut_equals_serial_fill(data in prop::collection::vec(any::<u64>(), 1000..1001), chunk in 1usize..130) {
        let pools = pools();
        for &len in &LENGTHS {
            let mut serial = data[..len].to_vec();
            for (index, cell) in serial.iter_mut().enumerate() {
                *cell = cell.wrapping_mul(index as u64 + 1);
            }
            for pool in &pools {
                let mut parallel = data[..len].to_vec();
                pool.par_chunks_mut(&mut parallel, chunk, |chunk_index, slice| {
                    for (offset, cell) in slice.iter_mut().enumerate() {
                        let index = chunk_index * chunk + offset;
                        *cell = cell.wrapping_mul(index as u64 + 1);
                    }
                });
                prop_assert_eq!(&parallel, &serial, "len {} chunk {} threads {}", len, chunk, pool.threads());
            }
        }
    }
}
