// Positive DL005 fixture: #[target_feature] fns called without a
// runtime feature check in the enclosing dispatcher, once by plain name
// and once through a turbofish, and a multi-feature kernel called behind
// checks that miss one of its features.
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

/// # Safety
/// Caller must verify AVX-512BW and AVX-512 VNNI support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vnni")]
unsafe fn kernel_vnni(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

#[cfg(target_arch = "x86_64")]
pub fn scan_vnni(xs: &[f32]) -> f32 {
    if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("avx512bw")
    {
        // SAFETY: wrong — avx512vnni is never checked, and avx2 is not
        // a feature the kernel needs; this is the fixture.
        return unsafe { kernel_vnni(xs) };
    }
    xs.iter().sum()
}
