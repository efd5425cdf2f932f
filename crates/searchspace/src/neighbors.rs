//! Valid-neighbor queries over the resolved search space.
//!
//! Optimization strategies such as genetic algorithms, hill climbing and
//! simulated annealing repeatedly ask for the valid neighbors of a
//! configuration. Because the space is fully resolved, the space answers
//! those queries itself instead of generating candidate configurations and
//! re-checking constraints (Section 4.4). A Hamming neighbor differs from its
//! configuration in exactly one position, so changing one code of the row and
//! probing the membership table behind [`SearchSpace::index_of_codes`] finds
//! every neighbor in Σ(domain sizes) lookups, with nothing built beforehand.
//! A strictly-adjacent neighbor is one of the two probes `code ± 1` per
//! position. An adjacent neighbor may differ in every position at once, so
//! its 3^params − 1 candidates are not worth probing: that method scans the
//! arena.
//!
//! [`NeighborIndex`] memoizes the rings a tuning session has asked for,
//! because sessions ask for the same configuration's ring again and again (an
//! annealing chain stays put after every rejected move).
//!
//! All queries operate on [`ConfigId`]s and the space's encoded code rows —
//! no configuration is decoded to [`at_csp::Value`]s anywhere in this module.

use rustc_hash::FxHashMap;

use crate::space::{ConfigId, SearchSpace};

/// The neighbor definitions supported by Kernel Tuner's `SearchSpace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborMethod {
    /// Configurations differing in exactly one parameter (Hamming distance 1).
    Hamming,
    /// Configurations whose value *code* differs by at most one in every
    /// parameter (and by at least one somewhere).
    Adjacent,
    /// Configurations differing in exactly one parameter, whose value code
    /// differs by exactly one.
    StrictlyAdjacent,
}

/// A tuning session's memo of neighbor rings over one space.
///
/// Building it is O(1) and allocates nothing; each ring is computed by
/// [`neighbors()`] on its first query and served from the memo afterwards.
#[derive(Debug)]
pub struct NeighborIndex<'a> {
    space: &'a SearchSpace,
    rings: FxHashMap<(ConfigId, NeighborMethod), Vec<ConfigId>>,
}

impl<'a> NeighborIndex<'a> {
    /// An empty memo over `space`.
    pub fn build(space: &'a SearchSpace) -> Self {
        NeighborIndex {
            space,
            rings: FxHashMap::default(),
        }
    }

    /// The neighbors of `id` according to `method`, in id order.
    pub fn neighbors(&mut self, id: ConfigId, method: NeighborMethod) -> &[ConfigId] {
        let space = self.space;
        self.rings
            .entry((id, method))
            .or_insert_with(|| neighbors(space, id, method))
    }
}

/// Neighbors of the configuration with the given id according to `method`,
/// in id order. An id outside the space has no neighbors.
///
/// `Hamming` and `StrictlyAdjacent` queries probe the membership table one
/// changed position at a time; `Adjacent` queries scan the arena.
pub fn neighbors(space: &SearchSpace, id: ConfigId, method: NeighborMethod) -> Vec<ConfigId> {
    let Some(codes) = space.codes_of(id) else {
        return Vec::new();
    };
    if method == NeighborMethod::Adjacent {
        return space
            .ids()
            .filter(|&j| is_adjacent(codes, space.codes_of(j).expect("valid id")))
            .collect();
    }
    let mut row = codes.to_vec();
    let mut out = Vec::new();
    for (pos, param) in space.params().iter().enumerate() {
        let own = codes[pos];
        let len = param.len() as u32;
        let probes = match method {
            NeighborMethod::StrictlyAdjacent => own.saturating_sub(1)..(own + 2).min(len),
            _ => 0..len,
        };
        for code in probes.filter(|&c| c != own) {
            row[pos] = code;
            out.extend(space.index_of_codes(&row));
        }
        row[pos] = own;
    }
    out.sort_unstable();
    out
}

/// True when every code of `a` and `b` differs by at most one, and at least
/// one differs.
fn is_adjacent(a: &[u32], b: &[u32]) -> bool {
    let mut any_diff = false;
    for (&x, &y) in a.iter().zip(b.iter()) {
        match x.abs_diff(y) {
            0 => {}
            1 => any_diff = true,
            _ => return false,
        }
    }
    any_diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TunableParameter;
    use at_csp::value::int_values;
    use at_csp::Value;

    /// Full 3x3 grid over x,y in {1,2,4} minus the (4,4) corner.
    fn space() -> SearchSpace {
        let params = vec![
            TunableParameter::ints("x", [1, 2, 4]),
            TunableParameter::ints("y", [1, 2, 4]),
        ];
        let mut configs = Vec::new();
        for &x in &[1i64, 2, 4] {
            for &y in &[1i64, 2, 4] {
                if !(x == 4 && y == 4) {
                    configs.push(int_values([x, y]));
                }
            }
        }
        SearchSpace::from_configs("grid", params, configs).unwrap()
    }

    /// Exhaustive reference: every row differing from `id` in exactly one
    /// position, by at most `max_step` codes there.
    fn scanned(s: &SearchSpace, id: ConfigId, max_step: u32) -> Vec<ConfigId> {
        let a = s.codes_of(id).unwrap();
        s.ids()
            .filter(|&j| {
                let b = s.codes_of(j).unwrap();
                let mut differing = a.iter().zip(b).filter(|(x, y)| x != y);
                matches!(
                    (differing.next(), differing.next()),
                    (Some((x, y)), None) if x.abs_diff(*y) <= max_step
                )
            })
            .collect()
    }

    #[test]
    fn probes_match_an_exhaustive_scan_and_the_memo_repeats_them() {
        let s = space();
        let mut index = NeighborIndex::build(&s);
        for id in s.ids() {
            for (method, max_step) in [
                (NeighborMethod::Hamming, u32::MAX),
                (NeighborMethod::StrictlyAdjacent, 1),
            ] {
                let probed = neighbors(&s, id, method);
                assert_eq!(probed, scanned(&s, id, max_step), "{method:?} of {id}");
                assert_eq!(index.neighbors(id, method), probed, "first query");
                assert_eq!(index.neighbors(id, method), probed, "memo hit");
            }
        }
    }

    #[test]
    fn hamming_neighbors_of_corner() {
        let s = space();
        let origin = s.index_of(&int_values([1, 1])).unwrap();
        let n = neighbors(&s, origin, NeighborMethod::Hamming);
        // same row or same column: (1,2), (1,4), (2,1), (4,1)
        assert_eq!(n.len(), 4);
        for j in n {
            let view = s.view(j).unwrap();
            assert!(view[0] == Value::Int(1) || view[1] == Value::Int(1));
        }
    }

    #[test]
    fn adjacent_neighbors_use_value_positions() {
        let s = space();
        let center = s.index_of(&int_values([2, 2])).unwrap();
        let n = neighbors(&s, center, NeighborMethod::Adjacent);
        // all 8 surrounding grid cells except the removed (4,4)
        assert_eq!(n.len(), 7);
    }

    #[test]
    fn strictly_adjacent_neighbors() {
        let s = space();
        let center = s.index_of(&int_values([2, 2])).unwrap();
        let n = neighbors(&s, center, NeighborMethod::StrictlyAdjacent);
        // only the 4 axis-aligned direct neighbors
        assert_eq!(n.len(), 4);
        let corner = s.index_of(&int_values([1, 1])).unwrap();
        let n = neighbors(&s, corner, NeighborMethod::StrictlyAdjacent);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn neighborhood_is_symmetric() {
        let s = space();
        for method in [
            NeighborMethod::Hamming,
            NeighborMethod::Adjacent,
            NeighborMethod::StrictlyAdjacent,
        ] {
            for i in s.ids() {
                for &j in &neighbors(&s, i, method) {
                    let back = neighbors(&s, j, method);
                    assert!(
                        back.contains(&i),
                        "{method:?} asymmetric between {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_id_has_no_neighbors() {
        let s = space();
        let bogus = ConfigId::from_index(999);
        assert!(neighbors(&s, bogus, NeighborMethod::Hamming).is_empty());
    }
}
