//! In-tree numerical substrate: special functions, quadrature, and samplers.
//!
//! Everything the drift/error math needs is implemented here so the device
//! model has no external math dependencies and stays reproducible.

mod erf;
mod gauss;
mod sample;

pub use erf::{erf, erfc, norm_cdf, norm_pdf, norm_ppf, norm_sf};
pub use gauss::GaussHermite;
pub use sample::{
    sample_binomial, sample_distinct_indices, sample_lognormal, sample_multinomial,
    sample_multinomial_into, sample_normal, sample_normal_inv, sample_std_normal,
    sample_truncated_normal, PrecomputedMultinomial,
};
