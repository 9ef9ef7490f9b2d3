//! Versioned policy checkpoints.
//!
//! A checkpoint is a one-line magic/version header followed by a JSON
//! payload carrying the actor, the critic (when the algorithm has one) and
//! enough configuration to validate compatibility at load time:
//!
//! ```text
//! sqlgen-checkpoint v1
//! {"config":{...},"actor":{...},"critic":{...}}
//! ```
//!
//! The header lets loaders reject future formats with a typed
//! [`CheckpointError::UnsupportedVersion`] instead of a serde panic, and
//! lets tools identify checkpoint files cheaply (read one line). Payloads
//! without a header are parsed as the legacy bare-`ActorNet` JSON emitted
//! by `save_actor` before this format existed.
//!
//! [`write_atomic`] publishes checkpoints via fsynced tmp-file + `rename`
//! so a concurrently-scanning model registry never observes a torn file.

use serde::{Deserialize, Serialize};
use sqlgen_rl::{ActorNet, Constraint, CriticNet, NetConfig, QuantizedActor};
use std::fmt;
use std::path::Path;

/// First token of the header line.
pub const CHECKPOINT_MAGIC: &str = "sqlgen-checkpoint";
/// Current (and only) supported format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Typed checkpoint failure — every malformed input maps here, never to a
/// panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Neither a versioned checkpoint header nor legacy actor JSON.
    BadMagic,
    /// Header is well-formed but names a version this build cannot read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// Header or payload failed to parse.
    Parse(String),
    /// The checkpoint's network was trained over a different action space
    /// than the loader's vocabulary.
    VocabMismatch { expected: usize, found: usize },
    /// A weight tensor holds NaN or ±inf (e.g. a literal past the f32 range,
    /// which parses to inf); serving from it would emit NaN logits.
    NonFinite {
        /// `"actor"` or `"critic"`.
        network: &'static str,
        /// Index of the tensor in the network's parameter order.
        tensor: usize,
    },
    /// Filesystem error while reading or (atomically) writing.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint: missing `{CHECKPOINT_MAGIC}` header and not legacy actor JSON")
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(f, "checkpoint format v{found} is newer than supported v{supported}")
            }
            CheckpointError::Parse(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::VocabMismatch { expected, found } => write!(
                f,
                "checkpoint vocabulary size {found} does not match the current action space {expected} \
                 (was it trained on a different schema or sample config?)"
            ),
            CheckpointError::NonFinite { network, tensor } => write!(
                f,
                "checkpoint {network} tensor #{tensor} holds a non-finite weight (NaN or inf)"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Configuration block stored alongside the weights. Optional fields are
/// `None` for checkpoints upgraded from the legacy bare-actor format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// `"actor-critic"`, `"reinforce"`, or `"legacy"` for upgraded files.
    pub algorithm: String,
    /// Action-space size the networks were trained over; validated against
    /// the loader's vocabulary.
    pub vocab_size: usize,
    pub net: Option<NetConfig>,
    /// Constraint the policy was trained for (provenance; loading under a
    /// different constraint is allowed).
    pub constraint: Option<Constraint>,
}

/// A versioned policy checkpoint: actor + optional critic + config.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    pub config: CheckpointMeta,
    pub actor: ActorNet,
    pub critic: Option<CriticNet>,
}

impl Checkpoint {
    /// Wraps a legacy bare actor (no critic, no recorded config).
    pub fn legacy(actor: ActorNet) -> Self {
        Checkpoint {
            config: CheckpointMeta {
                algorithm: "legacy".to_string(),
                vocab_size: actor.vocab_size,
                net: None,
                constraint: None,
            },
            actor,
            critic: None,
        }
    }

    /// Serializes to the on-disk format (header line + JSON payload).
    pub fn render(&self) -> String {
        let payload = serde_json::to_string(self).expect("checkpoint serializes");
        format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n{payload}\n")
    }

    /// Parses either a versioned checkpoint or legacy bare-actor JSON.
    /// Every weight must be finite; buffers are restored and the result is
    /// ready to run. Every load path — CLI, `serve --checkpoint`, registry
    /// hot-swap — goes through here.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut ckpt = Self::parse_raw(text)?;
        check_finite("actor", ckpt.actor.params_mut())?;
        ckpt.actor.restore_buffers();
        if let Some(critic) = &mut ckpt.critic {
            check_finite("critic", critic.params_mut())?;
            critic.restore_buffers();
        }
        Ok(ckpt)
    }

    /// Builds an int8 per-output-channel quantized snapshot of this
    /// checkpoint's actor (quantize-at-load: checkpoints always store f32
    /// weights; the int8 form exists only in memory). See
    /// `sqlgen_nn::quant` for the format and error bound.
    pub fn quantized_actor(&self) -> QuantizedActor {
        QuantizedActor::from_actor(&self.actor)
    }

    /// Like [`Checkpoint::parse`], then validates the action space against
    /// `expected_vocab` (both actor and critic).
    pub fn parse_for_vocab(
        text: &str,
        expected_vocab: usize,
    ) -> Result<Checkpoint, CheckpointError> {
        let ckpt = Self::parse(text)?;
        for found in
            std::iter::once(ckpt.actor.vocab_size).chain(ckpt.critic.as_ref().map(|c| c.vocab_size))
        {
            if found != expected_vocab {
                return Err(CheckpointError::VocabMismatch {
                    expected: expected_vocab,
                    found,
                });
            }
        }
        Ok(ckpt)
    }

    fn parse_raw(text: &str) -> Result<Checkpoint, CheckpointError> {
        let trimmed = text.trim_start();
        if !trimmed.starts_with(CHECKPOINT_MAGIC) {
            // Legacy fallback: `save_actor` used to emit the bare ActorNet
            // JSON with no header.
            let actor: ActorNet =
                serde_json::from_str(text).map_err(|_| CheckpointError::BadMagic)?;
            return Ok(Checkpoint::legacy(actor));
        }
        let (header, payload) = trimmed
            .split_once('\n')
            .ok_or_else(|| CheckpointError::Parse("missing payload after header".to_string()))?;
        let version_tok = header[CHECKPOINT_MAGIC.len()..].trim();
        let version: u32 = version_tok
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Parse(format!("bad version token `{version_tok}`")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        serde_json::from_str(payload).map_err(|e| CheckpointError::Parse(e.to_string()))
    }
}

/// Rejects a network whose weights hold any NaN or ±inf.
fn check_finite(
    network: &'static str,
    params: Vec<&mut sqlgen_nn::Param>,
) -> Result<(), CheckpointError> {
    match params
        .iter()
        .position(|p| !p.value.data.iter().all(|w| w.is_finite()))
    {
        Some(tensor) => Err(CheckpointError::NonFinite { network, tensor }),
        None => Ok(()),
    }
}

/// Writes `contents` to `path` atomically and durably (fsynced tmp file in
/// the same directory + `rename` + directory fsync), so concurrent readers
/// see either the old file or the new one, never a torn write — also
/// across a crash.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), CheckpointError> {
    sqlgen_storage::durable::replace_file(path, |tmp| {
        std::fs::write(tmp, contents).map_err(CheckpointError::from)
    })
}

/// Reads and parses a checkpoint file.
pub fn read_file(path: &Path) -> Result<Checkpoint, CheckpointError> {
    Checkpoint::parse(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_rl::NetConfig;

    fn small_actor(vocab: usize) -> ActorNet {
        ActorNet::new(
            vocab,
            &NetConfig {
                embed_dim: 4,
                hidden: 4,
                layers: 1,
                dropout: 0.0,
            },
            7,
        )
    }

    #[test]
    fn roundtrip_preserves_weights_and_meta() {
        let ckpt = Checkpoint {
            config: CheckpointMeta {
                algorithm: "actor-critic".to_string(),
                vocab_size: 11,
                net: Some(NetConfig {
                    embed_dim: 4,
                    hidden: 4,
                    layers: 1,
                    dropout: 0.0,
                }),
                constraint: Some(Constraint::cardinality_range(1.0, 5.0)),
            },
            actor: small_actor(11),
            critic: None,
        };
        let text = ckpt.render();
        assert!(text.starts_with("sqlgen-checkpoint v1\n"));
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.config.algorithm, "actor-critic");
        assert_eq!(back.config.vocab_size, 11);
        assert_eq!(back.actor.vocab_size, 11);
        assert!(back.critic.is_none());
        // Weight-level equality via re-serialization.
        assert_eq!(
            serde_json::to_string(&ckpt.actor).unwrap(),
            serde_json::to_string(&back.actor).unwrap()
        );
    }

    #[test]
    fn legacy_bare_actor_json_still_loads() {
        let actor = small_actor(9);
        let legacy = serde_json::to_string(&actor).unwrap();
        let ckpt = Checkpoint::parse(&legacy).unwrap();
        assert_eq!(ckpt.config.algorithm, "legacy");
        assert_eq!(ckpt.actor.vocab_size, 9);
        assert!(ckpt.critic.is_none());
    }

    #[test]
    fn version_mismatch_is_a_typed_error_not_a_panic() {
        let err = Checkpoint::parse("sqlgen-checkpoint v2\n{}").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        );
    }

    #[test]
    fn garbage_inputs_give_typed_errors() {
        assert_eq!(
            Checkpoint::parse("not a checkpoint at all").unwrap_err(),
            CheckpointError::BadMagic
        );
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint vX\n{}").unwrap_err(),
            CheckpointError::Parse(_)
        ));
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint v1").unwrap_err(),
            CheckpointError::Parse(_)
        ));
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint v1\nnot json").unwrap_err(),
            CheckpointError::Parse(_)
        ));
    }

    /// Overwrites the first weight of the first tensor in `text` with
    /// `literal`.
    fn with_first_weight(text: &str, literal: &str) -> String {
        let start = text.find("\"data\":[").expect("a tensor") + "\"data\":[".len();
        let end = start + text[start..].find([',', ']']).expect("a weight");
        let mut out = text.to_string();
        out.replace_range(start..end, literal);
        out
    }

    /// `1e39` is past the f32 range and parses to inf; such a checkpoint
    /// must be refused, not served (it would yield NaN logits).
    #[test]
    fn non_finite_weights_are_rejected() {
        let text = Checkpoint::legacy(small_actor(9)).render();
        assert!(Checkpoint::parse(&with_first_weight(&text, "0.5")).is_ok());
        let bad = with_first_weight(&text, "1e39");
        assert_eq!(
            Checkpoint::parse(&bad).unwrap_err(),
            CheckpointError::NonFinite {
                network: "actor",
                tensor: 0
            }
        );
        assert!(matches!(
            Checkpoint::parse_for_vocab(&bad, 9).unwrap_err(),
            CheckpointError::NonFinite { .. }
        ));
        // Legacy headerless JSON goes through the same check.
        let legacy = serde_json::to_string(&small_actor(9)).unwrap();
        assert!(matches!(
            Checkpoint::parse(&with_first_weight(&legacy, "-1e39")).unwrap_err(),
            CheckpointError::NonFinite { .. }
        ));
    }

    #[test]
    fn quantize_at_load_roundtrips_through_the_wire_format() {
        let ckpt = Checkpoint::legacy(small_actor(9));
        let back = Checkpoint::parse(&ckpt.render()).unwrap();
        let q = back.quantized_actor();
        assert_eq!(q.vocab_size, 9);
        // Same weights in, same int8 snapshot out.
        let direct = ckpt.quantized_actor();
        assert_eq!(q.head.w.data, direct.head.w.data);
        assert_eq!(q.head.w.scales, direct.head.w.scales);
    }

    #[test]
    fn vocab_validation_rejects_mismatched_checkpoints() {
        let text = Checkpoint::legacy(small_actor(9)).render();
        let err = Checkpoint::parse_for_vocab(&text, 13).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::VocabMismatch {
                expected: 13,
                found: 9
            }
        );
        assert!(Checkpoint::parse_for_vocab(&text, 9).is_ok());
    }

    #[test]
    fn write_atomic_replaces_file_without_leaving_tmp() {
        let dir = std::env::temp_dir().join(format!("sqlgen-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1, "tmp file leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
