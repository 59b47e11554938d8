//! SIMD tier detection and the one multiversioning macro.
//!
//! Every hot kernel of this crate is an `#[inline(always)]` *body* in plain
//! Rust, compiled once per tier by [`tiered!`] inside a
//! `#[target_feature]` function, so the body takes that tier's register
//! width and its hardware fused multiply-add. The arithmetic is written
//! with [`f32::mul_add`]: a fused multiply-add is correctly rounded, so
//! every tier — and the portable body, where `mul_add` falls back to libm's
//! `fmaf` on hardware without FMA (slow, correct) — computes the same bits.

/// Which multiversioned clone of a kernel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The portable body at the crate's baseline target features.
    Scalar,
    /// AVX2 with FMA (x86-64).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F, which implies AVX2 and FMA (x86-64).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON (aarch64).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// A SIMD tier the running CPU is known to support: the only ways to get
/// one are [`Tier::SCALAR`], [`Tier::best`] and [`Tier::available`], which
/// detect at run time, so holding a `Tier` is the proof its
/// `#[target_feature]` clones may be called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tier(Kind);

impl Tier {
    /// The portable body; runs anywhere.
    pub(crate) const SCALAR: Tier = Tier(Kind::Scalar);

    /// The widest tier this CPU supports. An x86 CPU with AVX2 but no FMA
    /// (none was ever sold with AVX-512 and no FMA) gets the portable body.
    #[inline]
    pub(crate) fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("fma") {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Tier(Kind::Avx512);
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Tier(Kind::Avx2);
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Tier(Kind::Neon);
        }
        Tier::SCALAR
    }

    /// Every tier this CPU supports, widest first, ending with
    /// [`Tier::SCALAR`] — what the tier-equality tests sweep (the
    /// dispatchers only ever pick the widest).
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let mut tiers = vec![Tier::best()];
        #[cfg(target_arch = "x86_64")]
        if tiers[0].0 == Kind::Avx512 {
            tiers.push(Tier(Kind::Avx2));
        }
        if tiers[0] != Tier::SCALAR {
            tiers.push(Tier::SCALAR);
        }
        tiers
    }

    #[inline]
    pub(crate) fn kind(self) -> Kind {
        self.0
    }

    /// `"avx512"`, `"avx2"`, `"neon"` or `"scalar"`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Kind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => "avx512",
            #[cfg(target_arch = "aarch64")]
            Kind::Neon => "neon",
        }
    }
}

/// Declares `fn name(tier, args…)` that runs an `#[inline(always)]` body
/// compiled for `tier`: `wide` on AVX-512 (thirty-two 16-lane registers),
/// `narrow` — the same arithmetic over a smaller register tile — on every
/// other tier; `= body` uses one body for all, and `= body[wide]` one body
/// whose last generic parameter, a `const WIDE: bool`, says which register
/// file it is being compiled for. A body must be `#[inline(always)]` along
/// with everything it calls: an out-of-line callee is compiled at the
/// crate's baseline features, where the wide registers never materialise
/// and `mul_add` is a libm call. A generic kernel lists its parameters
/// twice, as declared and as passed on:
/// `fn name[W: Bound, const H: usize][W, H](args…)`.
macro_rules! tiered {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident $([$($decl:tt)*][$($pass:tt)*])? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        = $body:ident
    ) => {
        tiered! {
            $(#[$meta])*
            $vis fn $name $([$($decl)*][$($pass)*])? ($($arg: $ty),*) $(-> $ret)? = $body, $body
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident $([$($decl:tt)*][$($pass:tt)*])? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        = $wide:ident, $narrow:ident
    ) => {
        tiered! {
            @clones [$(#[$meta])*] [$vis] $name [$($($decl)*)?] [$($($pass)*)?] ($($arg: $ty),*) [$($ret)?]
            $wide [$($($pass)*)?], $narrow [$($($pass)*)?]
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident [$($decl:tt)*][$($pass:tt)*] ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        = $body:ident[wide]
    ) => {
        tiered! {
            @clones [$(#[$meta])*] [$vis] $name [$($decl)*] [$($pass)*] ($($arg: $ty),*) [$($ret)?]
            $body [$($pass)*, true], $body [$($pass)*, false]
        }
    };
    (
        @clones [$(#[$meta:meta])*] [$vis:vis] $name:ident [$($decl:tt)*] [$($pass:tt)*] ($($arg:ident: $ty:ty),*) [$($ret:ty)?]
        $wide:ident [$($wide_pass:tt)*], $narrow:ident [$($narrow_pass:tt)*]
    ) => {
        $(#[$meta])*
        #[inline]
        $vis fn $name <$($decl)*> (tier: $crate::simd::Tier, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f,avx2,fma")]
                unsafe fn avx512 <$($decl)*> ($($arg: $ty),*) $(-> $ret)? {
                    $wide::<$($wide_pass)*>($($arg),*)
                }
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2 <$($decl)*> ($($arg: $ty),*) $(-> $ret)? {
                    $narrow::<$($narrow_pass)*>($($arg),*)
                }
                match tier.kind() {
                    // SAFETY: a `Tier` of this kind only exists if the CPU
                    // was detected to support AVX-512F, AVX2 and FMA.
                    $crate::simd::Kind::Avx512 => return unsafe { avx512::<$($pass)*>($($arg),*) },
                    // SAFETY: as above, for AVX2 and FMA.
                    $crate::simd::Kind::Avx2 => return unsafe { avx2::<$($pass)*>($($arg),*) },
                    $crate::simd::Kind::Scalar => {}
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                #[target_feature(enable = "neon")]
                unsafe fn neon <$($decl)*> ($($arg: $ty),*) $(-> $ret)? {
                    $narrow::<$($narrow_pass)*>($($arg),*)
                }
                if tier.kind() == $crate::simd::Kind::Neon {
                    // SAFETY: a `Tier` of this kind only exists if the CPU
                    // was detected to support NEON.
                    return unsafe { neon::<$($pass)*>($($arg),*) };
                }
            }
            let _ = tier;
            $narrow::<$($narrow_pass)*>($($arg),*)
        }
    };
}
pub(crate) use tiered;
