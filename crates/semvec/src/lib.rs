//! # semvec — deterministic semantic encoding and retrieval
//!
//! The paper encodes KG triples with Sentence-BERT and retrieves the
//! top-10 most cosine-similar KG triples per pseudo-triple. This crate
//! is the offline stand-in: a feature-hashing sentence encoder whose
//! cosine similarity preserves the ordering the pipeline needs
//! (same fact > related fact > unrelated), plus one retrieval engine,
//! [`SegmentedIndex`], and the naive oracle it is checked against.
//!
//! * [`token`] — tokenizer, stopwords, conservative stemmer;
//! * [`synonym`] — folding of verbalisation variants (schema-agnostic);
//! * [`embed`] — the encoder (ℝ^256, signed feature hashing, L2-norm);
//! * [`index`] — hits, bounded top-k selection, the retrieval jitter,
//!   and the naive reference oracle [`reference_top_k`];
//! * [`quant`] — int8 scalar quantization into a block layout (16-row
//!   groups of 64-byte chunks), the screen's two leaves (16-row group
//!   dots, 16-candidate scores) with their AVX-512, AVX2 and portable
//!   bodies, and the residual-norm error bound behind the two-stage
//!   scan;
//! * [`seg`] — the engine: f32 rows in fixed-size segments with
//!   per-segment int8 shadows, and its one scan — a batched int8 screen
//!   with an exact f32 rerank — bit-identical to [`reference_top_k`];
//! * [`verbalize`] — schema term humanisation for prompts and encoding.

#![warn(missing_docs)]

pub mod embed;
pub mod idf;
pub mod index;
pub mod quant;
pub mod seg;
pub mod synonym;
pub mod token;
pub mod verbalize;

pub use embed::{cosine, dot, l2_normalize, EmbedConfig, Embedder, QueryStyle, Vector};
pub use idf::IdfModel;
pub use index::{jitter, reference_top_k, Hit, NoisyQuery, TopK};
pub use quant::{
    pair_error_bound, quantize_block, screen_kernel, QuantBlock, QuantQuery, ScreenStats,
};
pub use seg::{
    build_chunk_ranges, resolve_build_threads, SegmentedIndex, PARALLEL_BUILD_MIN_DOCS,
    SEG_ROWS_DEFAULT,
};
pub use synonym::SynonymTable;
pub use verbalize::{display_triple, humanize_term, verbalize_triple};
