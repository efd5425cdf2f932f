//! Digests of constructed spaces, computed by the benchmark itself so that
//! no check relies on the code under test.
//!
//! Both digests work on the code arena: row-major `u32` codes, where a code
//! is the position of the value in its parameter's value list. The
//! benchmark only compares spaces whose parameters are the spec's own, so
//! codes mean the same values on both sides.

use at_searchspace::SearchSpace;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn row_hash(row: &[u32]) -> u64 {
    row.iter()
        .fold(0x243F_6A88_85A3_08D3, |h, &c| mix(h ^ u64::from(c)))
}

/// Order-independent digest of the set of rows: the wrapping sum of a
/// per-row hash, mixed with the row count. Two spaces holding the same
/// rows in any order share it.
pub fn rowset_digest(arena: &[u32], width: usize) -> u64 {
    if width == 0 {
        return mix(0);
    }
    let rows = arena.len() / width;
    let sum = arena
        .chunks_exact(width)
        .fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
    mix(sum ^ mix(rows as u64))
}

/// Order-dependent digest of the whole arena (FNV-1a over the codes): it
/// changes when the enumeration order changes.
pub fn arena_digest(arena: &[u32]) -> u64 {
    arena.iter().fold(0xCBF2_9CE4_8422_2325, |h, &c| {
        (h ^ u64::from(c)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Both digests of a space: `(rowset, arena)`.
pub fn space_digests(space: &SearchSpace) -> (u64, u64) {
    let arena = space.arena();
    (
        rowset_digest(arena, space.num_params()),
        arena_digest(arena),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowset_digest_ignores_row_order_but_not_content() {
        let a = [1, 2, 3, 4, 5, 6];
        let b = [5, 6, 1, 2, 3, 4];
        let c = [1, 2, 3, 4, 5, 7];
        assert_eq!(rowset_digest(&a, 2), rowset_digest(&b, 2));
        assert_ne!(rowset_digest(&a, 2), rowset_digest(&c, 2));
        // same codes, different row boundaries
        assert_ne!(rowset_digest(&a, 2), rowset_digest(&a, 3));
    }

    #[test]
    fn arena_digest_sees_row_order() {
        assert_ne!(arena_digest(&[1, 2, 3, 4]), arena_digest(&[3, 4, 1, 2]));
        assert_eq!(arena_digest(&[1, 2, 3, 4]), arena_digest(&[1, 2, 3, 4]));
    }
}
