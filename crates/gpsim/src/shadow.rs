//! Paged shadow tables: one cell of checker state per byte address.
//!
//! Both dynamic checkers keep per-address state — the sanitizer's launch-wide
//! global shadow ([`crate::sanitizer`]) and redcert's symbolic cells and
//! access logs ([`crate::cert`]). Addresses cluster (an array, a staging
//! slab), so the table is a handful of lazily allocated fixed-size pages
//! behind a small directory, with a memo of the last page in front of it:
//! the steady state of a lookup is a shift, a compare and an index.
//!
//! A [`Paged`] is a *total* map from `u64` to `T`: every address holds
//! `T::default()` until something else is stored there, and a cell that is
//! never asked for mutably costs nothing. Memory is `size_of::<T>() <<
//! BITS` per touched *page*, not per touched address — the worst case is
//! one access per page, i.e. `size_of::<T>()` times the span of addresses
//! the observed program can reach.

use std::collections::BTreeMap;

/// A total map from byte address to `T` over pages of `1 << BITS` cells.
#[derive(Debug)]
pub struct Paged<T, const BITS: u32> {
    pages: Vec<Box<[T]>>,
    /// Page number (`addr >> BITS`) → index into `pages`.
    dir: BTreeMap<u64, usize>,
    /// The `dir` entry resolved last, so that consecutive accesses to one
    /// page skip the directory.
    last: Option<(u64, usize)>,
    /// What [`Paged::get`] lends out for an address on no page.
    empty: T,
}

impl<T: Default + Clone, const BITS: u32> Default for Paged<T, BITS> {
    fn default() -> Self {
        Paged {
            pages: Vec::new(),
            dir: BTreeMap::new(),
            last: None,
            empty: T::default(),
        }
    }
}

impl<T: Default + Clone, const BITS: u32> Paged<T, BITS> {
    const MASK: u64 = (1 << BITS) - 1;

    /// The cell at `addr`; `T::default()` if nothing was stored there.
    pub fn get(&self, addr: u64) -> &T {
        let page = addr >> BITS;
        let idx = match self.last {
            Some((p, i)) if p == page => Some(i),
            _ => self.dir.get(&page).copied(),
        };
        idx.map_or(&self.empty, |i| {
            &self.pages[i][(addr & Self::MASK) as usize]
        })
    }

    /// The cell at `addr` for writing, allocating its page on first touch.
    ///
    /// The memo hit is inlined into every caller and the directory walk
    /// never is, so the checkers' per-byte loops do not depend on how the
    /// compiler happens to partition this crate.
    #[inline]
    pub fn slot(&mut self, addr: u64) -> &mut T {
        let idx = self.page(addr >> BITS);
        &mut self.pages[idx][(addr & Self::MASK) as usize]
    }

    /// The `len` cells from `addr` for writing when they lie on one page
    /// (allocating it on first touch), so that a checker can judge a
    /// whole access at once; `None` when the run crosses a page boundary.
    #[inline]
    pub fn run(&mut self, addr: u64, len: u64) -> Option<&mut [T]> {
        let off = addr & Self::MASK;
        if off + len > 1 << BITS {
            return None;
        }
        let idx = self.page(addr >> BITS);
        Some(&mut self.pages[idx][off as usize..(off + len) as usize])
    }

    /// The index of `page` in `pages`: the memo hit, else [`Paged::resolve`].
    #[inline]
    fn page(&mut self, page: u64) -> usize {
        match self.last {
            Some((p, i)) if p == page => i,
            _ => self.resolve(page),
        }
    }

    /// The index of `page` in `pages`, allocating the page on first touch,
    /// remembered as the last page resolved.
    #[cold]
    #[inline(never)]
    fn resolve(&mut self, page: u64) -> usize {
        let pages = &mut self.pages;
        let i = *self.dir.entry(page).or_insert_with(|| {
            // All-zero defaults of primitive arrays come from
            // `calloc`: untouched parts of the page stay uncommitted.
            pages.push(vec![T::default(); 1 << BITS].into_boxed_slice());
            pages.len() - 1
        });
        self.last = Some((page, i));
        i
    }

    /// Back to the all-default map, releasing every page.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.dir.clear();
        self.last = None;
    }

    /// Every cell of every allocated page — untouched ones included, still
    /// `T::default()` — in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.dir.iter().flat_map(move |(&page, &i)| {
            let cells = self.pages[i].iter().enumerate();
            cells.map(move |(k, cell)| (page << BITS | k as u64, cell))
        })
    }

    /// Number of pages allocated so far.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}
