// Negative DL005 fixture: the dispatchers verify the feature before
// calling the #[target_feature] instantiations, by plain name and
// through a turbofish; a multi-feature kernel is called behind a check
// of each of its features, and from a caller that enables them all.
/// # Safety
/// Caller must verify AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

#[cfg(target_arch = "x86_64")]
pub fn scan(xs: &[f32]) -> f32 {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 feature was just verified at runtime.
        return unsafe { kernel_avx2(xs) };
    }
    xs.iter().sum()
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
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 feature was just verified at runtime.
        return unsafe { tile_avx2::<3>(xs) };
    }
    xs.iter().take(3).sum()
}

/// # Safety
/// Caller must verify AVX-512BW and AVX-512 VNNI support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vnni")]
unsafe fn kernel_vnni(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// # Safety
/// Caller must verify AVX-512BW and AVX-512 VNNI support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vnni")]
unsafe fn outer_vnni(xs: &[f32]) -> f32 {
    // SAFETY: this fn enables every feature the kernel needs.
    unsafe { kernel_vnni(xs) }
}

#[cfg(target_arch = "x86_64")]
pub fn scan_vnni(xs: &[f32]) -> f32 {
    if std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vnni")
    {
        // SAFETY: both features were just verified at runtime.
        return unsafe { outer_vnni(xs) + kernel_vnni(xs) };
    }
    xs.iter().sum()
}
