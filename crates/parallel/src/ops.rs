//! Data-parallel operations built on [`Pool::par_for_ranges`].
//!
//! Every operation here carries the same guarantee: for closures meeting
//! the documented contract, the result is **bit-identical to the serial
//! evaluation** at every thread count. The implementations keep that
//! guarantee structurally — outputs are keyed by index or chunk start and
//! re-assembled in input order, never in completion order.

use crate::pool::Pool;
use std::ops::Range;
use std::sync::Mutex;

impl Pool {
    /// Maps `f` over `items`, returning results in input order — the
    /// parallel equivalent of `items.iter().map(f).collect()`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Out-of-order chunk results, keyed by the chunk's starting index
        // so input order can be restored.
        let pieces: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
        self.par_for_ranges(items.len(), 1, |range: Range<usize>| {
            let mapped: Vec<R> = items[range.clone()].iter().map(&f).collect();
            pieces
                .lock()
                .expect("piece lock")
                .push((range.start, mapped));
        });
        let mut pieces = pieces.into_inner().expect("piece lock");
        pieces.sort_unstable_by_key(|&(start, _)| start);
        let mut result = Vec::with_capacity(items.len());
        for (_, mut piece) in pieces {
            result.append(&mut piece);
        }
        result
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and calls `f(chunk_index, chunk)` for each, in
    /// parallel — the safe way to fill disjoint slices of one output
    /// buffer (e.g. the rows of a Gram matrix) from many threads.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        // Each chunk's `&mut` is parked in a Mutex slot and taken exactly
        // once by whichever thread claims that chunk — disjointness is
        // enforced by `take`, not by pointer arithmetic.
        let slots: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len)
            .map(|chunk| Mutex::new(Some(chunk)))
            .collect();
        self.par_for_ranges(slots.len(), 1, |range| {
            for index in range {
                let chunk = slots[index]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each chunk is claimed exactly once");
                f(index, chunk);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1usize, 2, 7] {
            let pool = Pool::with_threads(threads);
            let items: Vec<u64> = (0..1000).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
            assert_eq!(
                pool.par_map(&items, |&x| x.wrapping_mul(31) ^ 7),
                expected,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn par_map_empty_input() {
        let pool = Pool::with_threads(2);
        let out: Vec<u8> = pool.par_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        for threads in [1usize, 2, 5] {
            let pool = Pool::with_threads(threads);
            let mut data = vec![0usize; 103];
            pool.par_chunks_mut(&mut data, 10, |chunk_index, chunk| {
                for (offset, cell) in chunk.iter_mut().enumerate() {
                    *cell = chunk_index * 10 + offset;
                }
            });
            let expected: Vec<usize> = (0..103).collect();
            assert_eq!(data, expected, "threads {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_empty_data() {
        let pool = Pool::with_threads(2);
        let mut data: Vec<u8> = Vec::new();
        pool.par_chunks_mut(&mut data, 4, |_, _| panic!("no chunks expected"));
    }
}
