//! Affinity masks: sets of PUs, in the spirit of `hwloc` cpusets.

use crate::ids::PuId;

/// A set of processing units, used as a binding mask for software threads.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AffinityMask {
    words: Vec<u64>,
}

impl AffinityMask {
    /// Empty mask sized for `n_pus` processing units.
    pub fn empty(n_pus: usize) -> Self {
        AffinityMask {
            words: vec![0; n_pus.div_ceil(64)],
        }
    }

    /// Mask containing every PU in `0..n_pus`.
    pub fn all(n_pus: usize) -> Self {
        let mut m = Self::empty(n_pus);
        for i in 0..n_pus {
            m.insert(PuId(i));
        }
        m
    }

    /// Build from an iterator of PUs.
    pub fn from_pus(n_pus: usize, pus: impl IntoIterator<Item = PuId>) -> Self {
        let mut m = Self::empty(n_pus);
        for p in pus {
            m.insert(p);
        }
        m
    }

    pub fn insert(&mut self, pu: PuId) {
        let (w, b) = (pu.0 / 64, pu.0 % 64);
        assert!(w < self.words.len(), "PU {} out of mask range", pu.0);
        self.words[w] |= 1 << b;
    }

    pub fn remove(&mut self, pu: PuId) {
        let (w, b) = (pu.0 / 64, pu.0 % 64);
        if w < self.words.len() {
            self.words[w] &= !(1 << b);
        }
    }

    pub fn contains(&self, pu: PuId) -> bool {
        let (w, b) = (pu.0 / 64, pu.0 % 64);
        w < self.words.len() && (self.words[w] >> b) & 1 == 1
    }

    /// Number of PUs in the mask.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over member PUs in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = PuId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if (w >> b) & 1 == 1 {
                    Some(PuId(wi * 64 + b))
                } else {
                    None
                }
            })
        })
    }

    /// Set intersection.
    pub fn and(&self, other: &AffinityMask) -> AffinityMask {
        let n = self.words.len().min(other.words.len());
        AffinityMask {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
        }
    }

    /// Set union.
    pub fn or(&self, other: &AffinityMask) -> AffinityMask {
        let n = self.words.len().max(other.words.len());
        AffinityMask {
            words: (0..n)
                .map(|i| {
                    self.words.get(i).copied().unwrap_or(0)
                        | other.words.get(i).copied().unwrap_or(0)
                })
                .collect(),
        }
    }

    /// Lowest-numbered PU in the mask, if any.
    pub fn first(&self) -> Option<PuId> {
        self.iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut m = AffinityMask::empty(130);
        m.insert(PuId(0));
        m.insert(PuId(64));
        m.insert(PuId(129));
        assert!(m.contains(PuId(0)));
        assert!(m.contains(PuId(64)));
        assert!(m.contains(PuId(129)));
        assert!(!m.contains(PuId(1)));
        assert_eq!(m.count(), 3);
        m.remove(PuId(64));
        assert!(!m.contains(PuId(64)));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn all_and_iter() {
        let m = AffinityMask::all(70);
        assert_eq!(m.count(), 70);
        let pus: Vec<usize> = m.iter().map(|p| p.0).collect();
        assert_eq!(pus.len(), 70);
        assert_eq!(pus[0], 0);
        assert_eq!(pus[69], 69);
    }

    #[test]
    fn set_algebra() {
        let a = AffinityMask::from_pus(16, [PuId(1), PuId(2), PuId(3)]);
        let b = AffinityMask::from_pus(16, [PuId(2), PuId(3), PuId(4)]);
        assert_eq!(
            a.and(&b),
            AffinityMask::from_pus(16, [PuId(2), PuId(3)])
        );
        assert_eq!(
            a.or(&b),
            AffinityMask::from_pus(16, [PuId(1), PuId(2), PuId(3), PuId(4)])
        );
    }

    #[test]
    fn first_and_empty() {
        assert!(AffinityMask::empty(8).is_empty());
        assert_eq!(AffinityMask::empty(8).first(), None);
        assert_eq!(
            AffinityMask::from_pus(8, [PuId(5), PuId(6)]).first(),
            Some(PuId(5))
        );
    }
}
