//! Byte-addressed memory regions with f32 views and bump allocation.
//!
//! All four memory levels (DDR, GSM, SM, AM) use the same region type.
//! Backing store materialises on first touch, never on construction or
//! allocation: a scratchpad materialises whole, DDR grows to the touched
//! end.  Capacity, allocation and bounds checks never look at what is
//! materialised, so a run that touches no data (timing mode) costs no
//! memory however much it allocates.

use crate::SimError;

/// One memory region.
#[derive(Debug, Clone)]
pub struct MemRegion {
    name: &'static str,
    data: Vec<u8>,
    capacity: u64,
    /// Bump-allocation watermark.
    watermark: u64,
    /// What a touch materialises: the range's end (`true`, DDR) or the
    /// whole region (`false`, scratchpads).
    growable: bool,
    /// Reads observed since a flip was scheduled (untouched — and never
    /// counted — while no flips are pending, so fault-free runs pay
    /// nothing).
    reads: u64,
    /// Scheduled bit flips: `(nth_read, rng_word)`, ascending by read
    /// count.  The flip damages the stored bytes *in place* (a fault at
    /// rest), so it persists until the location is overwritten.
    pending_flips: Vec<(u64, u64)>,
    /// Flips that have fired.
    flips_applied: u64,
}

impl MemRegion {
    /// A fixed-size scratchpad: zero-filled, materialised whole on its
    /// first read, write or flip.
    pub fn fixed(name: &'static str, capacity: usize) -> Self {
        MemRegion {
            name,
            data: Vec::new(),
            capacity: capacity as u64,
            watermark: 0,
            growable: false,
            reads: 0,
            pending_flips: Vec::new(),
            flips_applied: 0,
        }
    }

    /// A lazily grown region (DDR): zero-filled, backing storage grows to
    /// the end of each touched range.
    pub fn growable(name: &'static str, capacity: u64) -> Self {
        MemRegion {
            name,
            data: Vec::new(),
            capacity,
            watermark: 0,
            growable: true,
            reads: 0,
            pending_flips: Vec::new(),
            flips_applied: 0,
        }
    }

    /// Region name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently bump-allocated.
    pub fn allocated(&self) -> u64 {
        self.watermark
    }

    /// Bytes of backing store currently materialised (0 until the first
    /// read, write or flip).
    pub fn materialised(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bounds-check an access, then materialise the store it touches.
    fn ensure(&mut self, offset: u64, len: u64) -> Result<(), SimError> {
        let end = offset.checked_add(len).ok_or(SimError::OutOfBounds {
            region: self.name,
            offset,
            len,
            capacity: self.capacity,
        })?;
        if end > self.capacity {
            return Err(SimError::OutOfBounds {
                region: self.name,
                offset,
                len,
                capacity: self.capacity,
            });
        }
        let want = if self.growable { end } else { self.capacity } as usize;
        if self.data.is_empty() {
            // `vec!` of zeros is one zeroed allocation: no page is written.
            self.data = vec![0; want];
        } else if self.data.len() < want {
            self.data.resize(want, 0);
        }
        Ok(())
    }

    /// Bump-allocate `bytes`, aligned to `align` (power of two), returning
    /// the byte offset.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, SimError> {
        debug_assert!(align.is_power_of_two());
        let start = (self.watermark + align - 1) & !(align - 1);
        if start + bytes > self.capacity {
            return Err(SimError::AllocFailure {
                region: self.name,
                requested: bytes,
                available: self.capacity.saturating_sub(start),
            });
        }
        self.watermark = start + bytes;
        Ok(start)
    }

    /// Release all bump allocations (contents are preserved).
    pub fn reset_alloc(&mut self) {
        self.watermark = 0;
    }

    /// Arm a bit flip on the `nth_read`-th read (1-based, counted from
    /// now); `rng` deterministically picks the flipped word within the
    /// accessed range.
    pub fn schedule_flip(&mut self, nth_read: u64, rng: u64) {
        let base = self.reads;
        self.pending_flips.push((base + nth_read, rng));
        self.pending_flips.sort_unstable();
    }

    /// Bit flips that have fired in this region.
    pub fn flips_applied(&self) -> u64 {
        self.flips_applied
    }

    /// Flip the exponent MSB (bit 30) of the f32 at `offset` in place —
    /// the DMA corruption primitive.
    pub(crate) fn flip_f32_msb(&mut self, offset: u64) -> Result<(), SimError> {
        self.ensure(offset, 4)?;
        self.data[offset as usize + 3] ^= 0x40;
        Ok(())
    }

    /// Fault hook, called on each read access *after* bounds are ensured.
    /// Free when nothing is armed: the read counter only ticks while a
    /// flip is pending, so fault-free runs take one branch and return.
    #[inline]
    fn fault_hook(&mut self, offset: u64, len: u64) {
        if self.pending_flips.is_empty() || len == 0 {
            return;
        }
        self.reads += 1;
        while let Some(&(nth, rng)) = self.pending_flips.first() {
            if nth > self.reads {
                break;
            }
            self.pending_flips.remove(0);
            // Flip bit 30 (exponent MSB) of one f32-aligned word in the
            // accessed range: non-zero values change by orders of
            // magnitude, zeros become 2.0 — both detectable by checksums.
            if len >= 4 {
                let word = rng % (len / 4);
                let msb = (offset + word * 4 + 3) as usize;
                self.data[msb] ^= 0x40;
            } else {
                self.data[offset as usize] ^= 0x40;
            }
            self.flips_applied += 1;
        }
    }

    /// Read one f32 (little-endian).
    pub fn read_f32(&mut self, offset: u64) -> Result<f32, SimError> {
        self.ensure(offset, 4)?;
        self.fault_hook(offset, 4);
        let o = offset as usize;
        let bytes = [
            self.data[o],
            self.data[o + 1],
            self.data[o + 2],
            self.data[o + 3],
        ];
        Ok(f32::from_le_bytes(bytes))
    }

    /// Write one f32 (little-endian).
    pub fn write_f32(&mut self, offset: u64, value: f32) -> Result<(), SimError> {
        self.ensure(offset, 4)?;
        self.data[offset as usize..offset as usize + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Read `count` consecutive f32 into `out`.
    pub fn read_f32_slice(&mut self, offset: u64, out: &mut [f32]) -> Result<(), SimError> {
        self.ensure(offset, 4 * out.len() as u64)?;
        self.fault_hook(offset, 4 * out.len() as u64);
        let base = offset as usize;
        for (i, v) in out.iter_mut().enumerate() {
            let o = base + 4 * i;
            *v = f32::from_le_bytes([
                self.data[o],
                self.data[o + 1],
                self.data[o + 2],
                self.data[o + 3],
            ]);
        }
        Ok(())
    }

    /// Write a slice of consecutive f32.
    pub fn write_f32_slice(&mut self, offset: u64, values: &[f32]) -> Result<(), SimError> {
        self.ensure(offset, 4 * values.len() as u64)?;
        let base = offset as usize;
        for (i, v) in values.iter().enumerate() {
            self.data[base + 4 * i..base + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Read one u64 (for the scalar register file's packed loads).
    pub fn read_u64(&mut self, offset: u64) -> Result<u64, SimError> {
        self.ensure(offset, 8)?;
        self.fault_hook(offset, 8);
        let o = offset as usize;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[o..o + 8]);
        Ok(u64::from_le_bytes(b))
    }

    /// Read one u32 zero-extended to u64.
    pub fn read_u32(&mut self, offset: u64) -> Result<u64, SimError> {
        self.ensure(offset, 4)?;
        self.fault_hook(offset, 4);
        let o = offset as usize;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[o..o + 4]);
        Ok(u32::from_le_bytes(b) as u64)
    }

    /// Raw byte copy *within* this region.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: u64) -> Result<(), SimError> {
        self.ensure(src, len)?;
        self.ensure(dst, len)?;
        self.data
            .copy_within(src as usize..(src + len) as usize, dst as usize);
        Ok(())
    }

    /// Copy bytes from another region into this one (the DMA primitive).
    pub fn copy_from(
        &mut self,
        src: &mut MemRegion,
        src_off: u64,
        dst_off: u64,
        len: u64,
    ) -> Result<(), SimError> {
        src.ensure(src_off, len)?;
        src.fault_hook(src_off, len);
        self.ensure(dst_off, len)?;
        let (s, e) = (src_off as usize, (src_off + len) as usize);
        self.data[dst_off as usize..(dst_off + len) as usize].copy_from_slice(&src.data[s..e]);
        Ok(())
    }

    /// Zero a byte range.
    pub fn zero(&mut self, offset: u64, len: u64) -> Result<(), SimError> {
        self.ensure(offset, len)?;
        self.data[offset as usize..(offset + len) as usize].fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trips() {
        let mut m = MemRegion::fixed("SM", 64);
        m.write_f32(12, 3.5).unwrap();
        assert_eq!(m.read_f32(12).unwrap(), 3.5);
        m.write_f32_slice(16, &[1.0, -2.0, 0.25]).unwrap();
        let mut out = [0.0; 3];
        m.read_f32_slice(16, &mut out).unwrap();
        assert_eq!(out, [1.0, -2.0, 0.25]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = MemRegion::fixed("AM", 16);
        assert!(m.write_f32(14, 1.0).is_err());
        assert!(m.read_f32(u64::MAX - 1).is_err(), "offset overflow guarded");
        assert!(m.read_u64(9).is_err());
        assert!(m.read_u64(8).is_ok());
    }

    #[test]
    fn growable_region_grows_lazily_up_to_capacity() {
        let mut m = MemRegion::growable("DDR", 1 << 20);
        assert_eq!(m.data.len(), 0);
        m.write_f32(1000, 7.0).unwrap();
        assert!(m.data.len() >= 1004);
        assert!(m.write_f32(1 << 20, 7.0).is_err());
    }

    #[test]
    fn alloc_materialises_nothing_and_checks_are_independent_of_it() {
        let mut m = MemRegion::growable("DDR", 2 << 30);
        assert_eq!(m.alloc(1 << 30, 64).unwrap(), 0);
        assert_eq!((m.allocated(), m.materialised()), (1 << 30, 0));
        // Capacity is enforced against the watermark, not the store.
        let err = m.alloc((1 << 30) + 1, 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::AllocFailure {
                requested,
                available,
                ..
            } if requested == (1 << 30) + 1 && available == 1 << 30
        ));
        // Bounds are enforced against the capacity, inside or outside
        // what was allocated, and a refused access materialises nothing.
        assert!(matches!(
            m.write_f32((2 << 30) - 2, 1.0),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(m.read_f32(u64::MAX - 1).is_err());
        assert_eq!(m.materialised(), 0);
        // A touch grows the store to the touched end, no further.
        assert_eq!(m.read_f32(4096).unwrap(), 0.0);
        assert_eq!(m.materialised(), 4100);
        m.write_f32(8, 1.0).unwrap();
        assert_eq!(m.materialised(), 4100);

        let mut sm = MemRegion::fixed("SM", 1024);
        sm.alloc(512, 64).unwrap();
        assert_eq!(sm.materialised(), 0);
        assert!(sm.write_f32(1022, 1.0).is_err());
        assert_eq!(sm.materialised(), 0);
        sm.write_f32(0, 1.0).unwrap();
        assert_eq!(sm.materialised(), 1024, "a scratchpad materialises whole");
    }

    #[test]
    fn flips_materialise_an_untouched_scratchpad_and_hit_the_same_word() {
        // Scheduled flip: the first read of 8 words picks word rng % 8.
        let mut am = MemRegion::fixed("AM", 4096);
        am.schedule_flip(1, 13);
        assert_eq!(am.materialised(), 0, "arming a flip touches nothing");
        let mut out = [0.0f32; 8];
        am.read_f32_slice(256, &mut out).unwrap();
        assert_eq!(am.materialised(), 4096);
        assert_eq!(am.flips_applied(), 1);
        let mut want = [0.0f32; 8];
        want[13 % 8] = 2.0; // bit 30 of +0.0
        assert_eq!(out, want);
        assert_eq!(
            am.read_f32(256 + 4 * 5).unwrap(),
            2.0,
            "the fault is at rest"
        );

        // DMA-corruption primitive on a never-touched region.
        let mut sm = MemRegion::fixed("SM", 4096);
        sm.flip_f32_msb(1000).unwrap();
        assert_eq!(sm.materialised(), 4096);
        assert_eq!(sm.read_f32(1000).unwrap(), 2.0);
        assert_eq!(sm.read_f32(996).unwrap(), 0.0);
        assert_eq!(sm.read_f32(1004).unwrap(), 0.0);
        assert!(sm.flip_f32_msb(4094).is_err());
    }

    #[test]
    fn packed_u64_matches_two_f32() {
        let mut m = MemRegion::fixed("SM", 32);
        m.write_f32(8, 1.5).unwrap();
        m.write_f32(12, -3.0).unwrap();
        let packed = m.read_u64(8).unwrap();
        assert_eq!(f32::from_bits(packed as u32), 1.5);
        assert_eq!(f32::from_bits((packed >> 32) as u32), -3.0);
        assert_eq!(m.read_u32(12).unwrap(), (-3.0f32).to_bits() as u64);
    }

    #[test]
    fn bump_alloc_aligns_and_fails_cleanly() {
        let mut m = MemRegion::fixed("GSM", 256);
        let a = m.alloc(10, 1).unwrap();
        let b = m.alloc(16, 64).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 64);
        assert_eq!(m.allocated(), 80);
        let err = m.alloc(1000, 1).unwrap_err();
        assert!(matches!(err, SimError::AllocFailure { .. }));
        m.reset_alloc();
        assert_eq!(m.alloc(10, 1).unwrap(), 0);
    }

    #[test]
    fn dma_copy_between_regions() {
        let mut ddr = MemRegion::growable("DDR", 1 << 16);
        let mut am = MemRegion::fixed("AM", 1 << 10);
        ddr.write_f32_slice(128, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        am.copy_from(&mut ddr, 128, 0, 16).unwrap();
        let mut out = [0.0; 4];
        am.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_clears_range_only() {
        let mut m = MemRegion::fixed("AM", 64);
        m.write_f32_slice(0, &[1.0; 4]).unwrap();
        m.zero(4, 8).unwrap();
        let mut out = [0.0; 4];
        m.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [1.0, 0.0, 0.0, 1.0]);
    }
}
