//! Seeded consistent-hash ring with virtual nodes: the single source of
//! truth for session → node placement in the cluster tier.
//!
//! Every member contributes `vnodes` points to a 64-bit hash circle
//! (FNV-1a over `(seed, member name, vnode index)`); a key is owned by
//! the member contributing the first point clockwise from the key's own
//! hash. The ring is a pure function of `(seed, vnodes, member set)`, so
//! every party that knows the membership — each daemon, the replay
//! harness, the load generator's fan-out — computes identical placement
//! without coordination. Virtual nodes keep the shares balanced and make
//! membership changes *minimal*: adding a member only reassigns the keys
//! that land on its points, removing one only reassigns its own keys
//! (asserted by the disruption tests below).
//!
//! Members are identified by their advertised address strings; ties on a
//! hash point (astronomically rare) break by member name so placement
//! never depends on the order the membership list was written in.

/// Default ring seed: every party must agree on it (or carry an explicit
/// one in `RingSet`), since placement is a function of the seed.
pub const DEFAULT_RING_SEED: u64 = 0xC105_7E55_EED5;

/// Default virtual nodes per member. 64 keeps the worst member share
/// within ~2x of fair for small clusters while the ring stays tiny.
pub const DEFAULT_VNODES: u32 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer: FNV-1a alone avalanches poorly in the high
/// bits, and ring members are *near-identical* strings (addresses
/// differing in one port digit), which would cluster their points on
/// one arc of the circle. The finalizer spreads them uniformly.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash point for virtual node `vnode` of member `node` under `seed`.
fn point_hash(seed: u64, node: &str, vnode: u32) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    let h = fnv1a(h, node.as_bytes());
    // A separator byte keeps ("n1", 2) and ("n12", ...) streams distinct
    // even though member names are arbitrary strings.
    let h = fnv1a(h, &[0xFF]);
    mix(fnv1a(h, &vnode.to_le_bytes()))
}

/// Hash of a key (session name) onto the circle.
fn key_hash(seed: u64, key: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    mix(fnv1a(h, key.as_bytes()))
}

/// A consistent-hash ring over named members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    seed: u64,
    vnodes: u32,
    nodes: Vec<String>,
    /// `(point, member index)`, sorted by point (ties by member name).
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Build the ring for a member set. Duplicate names are collapsed
    /// (placement is a function of the *set*); `vnodes` is clamped ≥ 1.
    pub fn new(seed: u64, vnodes: u32, mut nodes: Vec<String>) -> Ring {
        nodes.dedup_by(|a, b| a == b); // adjacent dups
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for (i, node) in nodes.iter().enumerate() {
            if nodes[..i].contains(node) {
                continue; // non-adjacent duplicate
            }
            for v in 0..vnodes {
                points.push((point_hash(seed, node, v), i as u32));
            }
        }
        points.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| nodes[a.1 as usize].cmp(&nodes[b.1 as usize]))
        });
        Ring {
            seed,
            vnodes,
            nodes,
            points,
        }
    }

    /// The seed placement was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Member names in wire order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring has no members (placement undefined).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of `node` in the member list.
    pub fn index_of(&self, node: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n == node)
    }

    /// True when `node` is a member.
    pub fn contains(&self, node: &str) -> bool {
        self.index_of(node).is_some()
    }

    /// Member index owning `key`, or `None` on an empty ring.
    pub fn owner_index(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = key_hash(self.seed, key);
        // First point at or clockwise-after the key's hash; wrap to the
        // first point when the key hashes past the last one.
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[if i == self.points.len() { 0 } else { i }];
        Some(node as usize)
    }

    /// Member name owning `key`, or `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.owner_index(key).map(|i| self.nodes[i].as_str())
    }

    /// Fraction of the hash circle owned by member `index` (sums to 1.0
    /// across members). This is the per-node ownership gauge's source.
    pub fn share(&self, index: usize) -> f64 {
        if self.points.is_empty() || index >= self.nodes.len() {
            return 0.0;
        }
        let mut owned: u128 = 0;
        for (i, &(p, node)) in self.points.iter().enumerate() {
            // The arc *ending* at point `i` (exclusive start at the
            // previous point) belongs to point `i`'s member.
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            if node as usize == index {
                owned += u128::from(p.wrapping_sub(prev));
            }
        }
        owned as f64 / (u128::from(u64::MAX) + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = Ring::new(7, 64, names(3));
        let b = Ring::new(7, 64, names(3));
        let mut rev = names(3);
        rev.reverse();
        let c = Ring::new(7, 64, rev);
        for k in 0..500 {
            let key = format!("session-{k}");
            assert_eq!(a.owner(&key), b.owner(&key), "same inputs, same owner");
            assert_eq!(
                a.owner(&key),
                c.owner(&key),
                "owner is a function of the member *set*, not list order"
            );
        }
    }

    #[test]
    fn seed_changes_placement() {
        let a = Ring::new(1, 64, names(4));
        let b = Ring::new(2, 64, names(4));
        let moved = (0..1000)
            .filter(|k| {
                let key = format!("s{k}");
                a.owner(&key) != b.owner(&key)
            })
            .count();
        assert!(
            moved > 200,
            "a new seed reshuffles placement ({moved} moved)"
        );
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES, names(3));
        let mut counts = [0usize; 3];
        for k in 0..9000 {
            counts[ring.owner_index(&format!("session-{k}")).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (900..6600).contains(&c),
                "node {i} owns {c}/9000 keys — vnodes should keep shares sane"
            );
        }
        let total: f64 = (0..3).map(|i| ring.share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1 ({total})");
    }

    #[test]
    fn join_only_moves_keys_to_the_joiner() {
        let old = Ring::new(3, 64, names(3));
        let mut grown = names(3);
        grown.push("127.0.0.1:9100".to_string());
        let new = Ring::new(3, 64, grown);
        let mut moved = 0;
        for k in 0..3000 {
            let key = format!("session-{k}");
            let before = old.owner(&key).unwrap();
            let after = new.owner(&key).unwrap();
            if before != after {
                moved += 1;
                assert_eq!(
                    after, "127.0.0.1:9100",
                    "a join may only reassign keys *to* the joiner"
                );
            }
        }
        assert!(moved > 0, "the joiner must take some load");
        assert!(
            moved < 1800,
            "a join must not reshuffle most keys ({moved})"
        );
    }

    #[test]
    fn drain_only_moves_the_drained_nodes_keys() {
        let old = Ring::new(3, 64, names(3));
        let new = Ring::new(3, 64, names(2)); // drop the last member
        let drained = old.nodes()[2].clone();
        for k in 0..3000 {
            let key = format!("session-{k}");
            let before = old.owner(&key).unwrap();
            let after = new.owner(&key).unwrap();
            if before != drained {
                assert_eq!(before, after, "surviving members keep their keys");
            } else {
                assert_ne!(after, drained);
            }
        }
    }

    #[test]
    fn empty_and_singleton_rings() {
        let empty = Ring::new(1, 64, vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.owner("x"), None);
        assert_eq!(empty.share(0), 0.0);
        let solo = Ring::new(1, 64, vec!["only".into()]);
        for k in 0..50 {
            assert_eq!(solo.owner(&format!("s{k}")), Some("only"));
        }
        assert!((solo.share(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_members_collapse() {
        let dup = Ring::new(5, 32, vec!["a".into(), "b".into(), "a".into(), "b".into()]);
        let clean = Ring::new(5, 32, vec!["a".into(), "b".into()]);
        for k in 0..200 {
            let key = format!("s{k}");
            assert_eq!(dup.owner(&key), clean.owner(&key));
        }
    }
}
