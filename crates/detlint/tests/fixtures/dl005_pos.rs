// Positive DL005 fixture: #[target_feature] fns called without a
// runtime feature check in the enclosing dispatcher, once by plain name
// and once through a turbofish.
/// # Safety
/// Caller must verify AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

#[cfg(target_arch = "x86_64")]
pub fn scan(xs: &[f32]) -> f32 {
    // SAFETY: wrong — there is no runtime check; this is the fixture.
    unsafe { kernel_avx2(xs) }
}

/// # Safety
/// Caller must verify AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<const T: usize>(xs: &[f32]) -> f32 {
    xs.iter().take(T).sum()
}

#[cfg(target_arch = "x86_64")]
pub fn scan_tile(xs: &[f32]) -> f32 {
    // SAFETY: wrong — a turbofish call is still a call; this is the
    // fixture.
    unsafe { tile_avx2::<3>(xs) }
}
