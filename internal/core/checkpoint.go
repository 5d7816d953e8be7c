package core

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"jsrevealer/internal/ml/nn"
)

// CheckpointVersion is the on-disk format version of training checkpoints.
// Loading a checkpoint written by a different version fails loudly rather
// than risking a silently wrong resume.
const CheckpointVersion = 1

// CheckpointStage identifies how far a training checkpoint got. Stages are
// strictly ordered: a later stage subsumes every earlier one, and resume
// picks the latest stage whose file exists and validates.
type CheckpointStage string

// The three checkpointable points of the preparation pipeline, in order.
const (
	// StageExtracted holds the parsed corpus reduced to path keys (and path
	// strings for the training set): resume skips lexing, parsing, data-flow
	// analysis, and path traversal.
	StageExtracted CheckpointStage = "extracted"
	// StageEmbedded additionally holds the pre-trained embedding model, the
	// embedded training scripts, and the pre-outlier path-vector pools:
	// resume skips embedding pre-training, the wall-clock dominator.
	StageEmbedded CheckpointStage = "embedded"
	// StagePrepared is the complete Prepared state after outlier filtering:
	// resume goes straight to Build.
	StagePrepared CheckpointStage = "prepared"
)

// checkpointStages lists the stages newest-first, the resume search order.
var checkpointStages = []CheckpointStage{StagePrepared, StageEmbedded, StageExtracted}

// CheckpointPath returns the file a given stage checkpoints to inside dir.
// Each stage uses its own file so a later interrupted stage never corrupts
// an earlier completed one.
func CheckpointPath(dir string, stage CheckpointStage) string {
	return filepath.Join(dir, "train-"+string(stage)+".ckpt.json")
}

// scriptKeys is one script reduced to its hashed path keys. Descs carries
// the printable path strings (training scripts only — they feed feature
// provenance); pretrain scripts omit them.
type scriptKeys struct {
	Keys      []nn.PathKey `json:"keys"`
	Descs     []string     `json:"descs,omitempty"`
	Malicious bool         `json:"malicious"`
}

// embeddedJSON is the serialized form of one embedded training script.
type embeddedJSON struct {
	Embs      []nn.Embedding `json:"embs"`
	Malicious bool           `json:"malicious"`
}

// pooledJSON is the serialized form of one per-class path-vector pool.
type pooledJSON struct {
	Vecs  [][]float64 `json:"vecs"`
	Descs []string    `json:"descs"`
}

// checkpointJSON is the single envelope every checkpoint stage serializes
// to. Which payload fields are populated depends on Stage; the digests gate
// resume against a changed corpus or configuration.
type checkpointJSON struct {
	Version       int             `json:"version"`
	Stage         CheckpointStage `json:"stage"`
	CorpusDigest  string          `json:"corpusDigest"`
	OptsDigest    string          `json:"optsDigest"`
	Options       Options         `json:"options"`
	ParseFailures int             `json:"parseFailures"`

	// StageExtracted payload.
	Pretrain []scriptKeys `json:"pretrain,omitempty"`
	Train    []scriptKeys `json:"train,omitempty"`

	// StageEmbedded payload (plus StagePrepared, where Pools are the
	// outlier-filtered ones and OutlierName records the selection).
	Model       *nn.Model      `json:"model,omitempty"`
	Embs        []embeddedJSON `json:"embs,omitempty"`
	Pools       *[2]pooledJSON `json:"pools,omitempty"`
	OutlierName string         `json:"outlierDetector,omitempty"`
}

// encodeCheckpoint renders cj as gzip-compressed JSON. Embedding vectors
// serialize to verbose decimal floats, so compression shrinks checkpoints
// by roughly an order of magnitude; readers sniff the gzip magic and accept
// plain JSON too.
func encodeCheckpoint(w io.Writer, cj *checkpointJSON) error {
	zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(zw).Encode(cj); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// decodeCheckpoint parses checkpoint bytes, transparently decompressing
// gzip-framed data (the written format; plain JSON is accepted for
// hand-crafted or legacy files).
func decodeCheckpoint(data []byte, cj *checkpointJSON) error {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer zr.Close()
		return json.NewDecoder(zr).Decode(cj)
	}
	return json.Unmarshal(data, cj)
}

// writeCheckpoint atomically writes cj to its stage file under dir: encode
// into a temp file in the same directory, then rename over the target, so a
// crash mid-write never leaves a truncated checkpoint behind.
func writeCheckpoint(dir string, cj *checkpointJSON) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+string(cj.Stage)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encodeCheckpoint(tmp, cj); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint %s: %w", cj.Stage, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", cj.Stage, err)
	}
	if err := os.Rename(tmp.Name(), CheckpointPath(dir, cj.Stage)); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", cj.Stage, err)
	}
	return nil
}

// readCheckpoint loads and validates one stage file. A missing file returns
// (nil, nil); a present-but-invalid file (corrupt JSON, version mismatch,
// digest mismatch) returns an error — resuming from wrong state must be
// loud, never silent.
func readCheckpoint(dir string, stage CheckpointStage, corpusDig, optsDig string) (*checkpointJSON, error) {
	path := CheckpointPath(dir, stage)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	var cj checkpointJSON
	if err := decodeCheckpoint(data, &cj); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: corrupt: %w", path, err)
	}
	if cj.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s: version %d, want %d", path, cj.Version, CheckpointVersion)
	}
	if cj.Stage != stage {
		return nil, fmt.Errorf("core: checkpoint %s: stage %q, want %q", path, cj.Stage, stage)
	}
	if corpusDig != "" && cj.CorpusDigest != corpusDig {
		return nil, fmt.Errorf("core: checkpoint %s: written for a different corpus (digest %s, want %s); delete the checkpoint directory to refit",
			path, short(cj.CorpusDigest), short(corpusDig))
	}
	if optsDig != "" && cj.OptsDigest != optsDig {
		return nil, fmt.Errorf("core: checkpoint %s: written under different options (digest %s, want %s); delete the checkpoint directory to refit",
			path, short(cj.OptsDigest), short(optsDig))
	}
	return &cj, nil
}

// loadLatest returns the newest-stage valid checkpoint in dir, or nil when
// no stage file exists.
func loadLatest(dir, corpusDig, optsDig string) (*checkpointJSON, error) {
	for _, stage := range checkpointStages {
		cj, err := readCheckpoint(dir, stage, corpusDig, optsDig)
		if err != nil {
			return nil, err
		}
		if cj != nil {
			return cj, nil
		}
	}
	return nil, nil
}

// short abbreviates a digest for error messages.
func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// corpusDigest fingerprints the training inputs: sample counts, labels, and
// source bytes of both sets, in order. Resume refuses checkpoints whose
// digest differs — path keys baked into a checkpoint are only valid for the
// exact corpus they were extracted from.
func corpusDigest(train, pretrain []Sample) string {
	h := sha256.New()
	var buf [8]byte
	writeSet := func(tag string, set []Sample) {
		h.Write([]byte(tag))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(set)))
		h.Write(buf[:])
		for _, s := range set {
			b := byte(0)
			if s.Malicious {
				b = 1
			}
			h.Write([]byte{b})
			binary.LittleEndian.PutUint64(buf[:], uint64(len(s.Source)))
			h.Write(buf[:])
			h.Write([]byte(s.Source))
		}
	}
	writeSet("train\n", train)
	writeSet("pretrain\n", pretrain)
	return hex.EncodeToString(h.Sum(nil))
}

// optionsDigest fingerprints the options that shape preparation state.
// Build-time knobs (K values, overlap threshold, trainer, uniform weights)
// and pure parallelism knobs (TrainWorkers; Embedding.TrainWorkers is
// excluded from nn.Config's JSON form) are zeroed first, so a K sweep or a
// different worker count reuses the same checkpoints.
func optionsDigest(opts Options) string {
	opts.Trainer = nil
	opts.TrainWorkers = 0
	opts.KBenign, opts.KMalicious = 0, 0
	opts.OverlapThreshold = 0
	opts.UniformWeights = false
	data, err := json.Marshal(opts)
	if err != nil {
		// Options is a plain data struct after nilling Trainer; marshal
		// cannot fail. Guard anyway so a future field can't panic training.
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Save writes the complete prepared state to one file, the same
// gzip-compressed JSON format as a StagePrepared checkpoint. A saved
// Prepared can Build detectors for many (K, classifier) combinations in
// later processes without refitting.
func (p *Prepared) Save(path string) error {
	var buf bytes.Buffer
	if err := encodeCheckpoint(&buf, p.toCheckpoint()); err != nil {
		return fmt.Errorf("core: save prepared: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadPrepared reads prepared training state written by Prepared.Save (or a
// train-prepared.ckpt.json checkpoint file directly).
func LoadPrepared(path string) (*Prepared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load prepared: %w", err)
	}
	var cj checkpointJSON
	if err := decodeCheckpoint(data, &cj); err != nil {
		return nil, fmt.Errorf("core: load prepared %s: %w", path, err)
	}
	if cj.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: load prepared %s: version %d, want %d", path, cj.Version, CheckpointVersion)
	}
	if cj.Stage != StagePrepared || cj.Model == nil || cj.Pools == nil {
		return nil, fmt.Errorf("core: load prepared %s: not a prepared-stage checkpoint", path)
	}
	p := &Prepared{
		opts:                cj.Options,
		model:               cj.Model,
		OutlierDetectorName: cj.OutlierName,
		acct:                newStageAccount(),
		parseFailures:       cj.ParseFailures,
		corpusDigest:        cj.CorpusDigest,
		optsDigest:          cj.OptsDigest,
	}
	p.embs = make([]embedded, len(cj.Embs))
	for i, e := range cj.Embs {
		p.embs[i] = embedded{embs: e.Embs, malicious: e.Malicious}
	}
	for c := 0; c < 2; c++ {
		p.pools[c] = pooled{vecs: cj.Pools[c].Vecs, descs: cj.Pools[c].Descs}
	}
	return p, nil
}

// toCheckpoint renders the prepared state as a StagePrepared envelope.
func (p *Prepared) toCheckpoint() *checkpointJSON {
	opts := p.opts
	opts.Trainer = nil // interface: not serializable, supplied at Build time
	cj := &checkpointJSON{
		Version:       CheckpointVersion,
		Stage:         StagePrepared,
		CorpusDigest:  p.corpusDigest,
		OptsDigest:    p.optsDigest,
		Options:       opts,
		ParseFailures: p.parseFailures,
		Model:         p.model,
		OutlierName:   p.OutlierDetectorName,
		Pools:         new([2]pooledJSON),
	}
	cj.Embs = make([]embeddedJSON, len(p.embs))
	for i, e := range p.embs {
		cj.Embs[i] = embeddedJSON{Embs: e.embs, Malicious: e.malicious}
	}
	for c := 0; c < 2; c++ {
		cj.Pools[c] = pooledJSON{Vecs: p.pools[c].vecs, Descs: p.pools[c].descs}
	}
	return cj
}
