//! Per-register hook state of one warp, found without hashing.
//!
//! Shadow and coach hooks keep state per ⟨warp, register⟩ and look it up
//! on every call. A [`RegMap`] answers "does register `r` have state?"
//! with one bit test and finds the state by rank: the values sit in
//! register order, so register `r`'s value is at the index given by the
//! number of present registers below `r`. Memory is proportional to the
//! registers present, like a hash map's, and iteration runs in register
//! order.

use fpx_sass::operand::Reg;

/// A map from register number to `T`.
#[derive(Debug)]
pub struct RegMap<T> {
    /// Bit `r % 64` of word `r / 64` is set when register `r` is present.
    present: [u64; 4],
    /// The present registers' values, in register order.
    vals: Vec<T>,
}

impl<T> Default for RegMap<T> {
    fn default() -> Self {
        RegMap {
            present: [0; 4],
            vals: Vec::new(),
        }
    }
}

impl<T> RegMap<T> {
    /// Whether register `r` is present.
    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        self.present[(r >> 6) as usize] >> (r & 63) & 1 != 0
    }

    /// `Ok(i)` when register `r`'s value is at index `i`, else `Err(i)`
    /// with the index it would take.
    #[inline]
    fn slot(&self, r: Reg) -> Result<usize, usize> {
        let w = (r >> 6) as usize;
        let below: u32 = self.present[..w].iter().map(|m| m.count_ones()).sum();
        let i = (below + (self.present[w] & ((1u64 << (r & 63)) - 1)).count_ones()) as usize;
        if self.contains(r) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    #[inline]
    pub fn get(&self, r: Reg) -> Option<&T> {
        self.slot(r).ok().map(|i| &self.vals[i])
    }

    /// Register `r`'s value, inserting `make()` first if it is absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, r: Reg, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.slot(r) {
            Ok(i) => i,
            Err(i) => {
                self.vals.insert(i, make());
                self.present[(r >> 6) as usize] |= 1 << (r & 63);
                i
            }
        };
        &mut self.vals[i]
    }

    pub fn remove(&mut self, r: Reg) -> Option<T> {
        let i = self.slot(r).ok()?;
        self.present[(r >> 6) as usize] &= !(1 << (r & 63));
        Some(self.vals.remove(i))
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The present registers and their values, in register order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &T)> {
        (0..=Reg::MAX).filter(|&r| self.contains(r)).zip(&self.vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_sit_in_register_order_across_words() {
        let mut m = RegMap::default();
        for r in [200u8, 3, 64, 63, 0, 255, 130] {
            *m.get_or_insert_with(r, || 0) = r as u32 * 10;
        }
        *m.get_or_insert_with(64, || 0) = 7;
        let got: Vec<(Reg, u32)> = m.iter().map(|(r, v)| (r, *v)).collect();
        assert_eq!(
            got,
            vec![
                (0, 0),
                (3, 30),
                (63, 630),
                (64, 7),
                (130, 1300),
                (200, 2000),
                (255, 2550)
            ]
        );
        assert_eq!(m.get(130), Some(&1300));
        assert_eq!(m.get(131), None);
        assert_eq!(m.remove(63), Some(630));
        assert_eq!(m.remove(63), None);
        assert_eq!(m.get(64), Some(&7));
        assert_eq!(m.get(255), Some(&2550));
        *m.get_or_insert_with(1, || 5) += 1;
        assert_eq!(m.get(1), Some(&6));
        for r in [0, 1, 3, 64, 130, 200, 255] {
            m.remove(r);
        }
        assert!(m.is_empty());
    }
}
