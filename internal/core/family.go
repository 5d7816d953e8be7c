package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/ml/classify"
)

// FamilySample is a labelled script for family classification: the sample's
// malware family (or benign program family) name.
type FamilySample struct {
	Source string
	Family string
}

// FamilyClassifier assigns scripts to malware families — the extension the
// paper names as future work ("our future work will add a JavaScript
// malware family component"). It reuses a trained Detector's embedding
// model and cluster features and stacks a one-vs-rest random forest per
// family on top.
type FamilyClassifier struct {
	det      *Detector
	families []string
	// perFamily[i] scores membership in families[i].
	perFamily []*classify.RandomForest
}

// TrainFamilyClassifier fits a family classifier over a trained detector's
// feature space.
func TrainFamilyClassifier(det *Detector, samples []FamilySample, seed int64) (*FamilyClassifier, error) {
	if det == nil || det.classifier == nil {
		return nil, ErrNotTrained
	}
	if len(samples) == 0 {
		return nil, errors.New("core: no family samples")
	}

	// Featurize every sample once.
	var feats [][]float64
	var fams []string
	for _, s := range samples {
		f, err := det.featurizeSource(s.Source)
		if err != nil {
			continue
		}
		feats = append(feats, f)
		fams = append(fams, s.Family)
	}
	if len(feats) == 0 {
		return nil, errors.New("core: no family sample parsed")
	}

	familySet := make(map[string]bool)
	for _, f := range fams {
		familySet[f] = true
	}
	families := make([]string, 0, len(familySet))
	for f := range familySet {
		families = append(families, f)
	}
	sort.Strings(families)
	if len(families) < 2 {
		return nil, errors.New("core: family classification needs at least two families")
	}

	fc := &FamilyClassifier{det: det, families: families}
	for i, fam := range families {
		labels := make([]bool, len(fams))
		for j, f := range fams {
			labels[j] = f == fam
		}
		trainer := &classify.RandomForestTrainer{Seed: seed + int64(i)*131, Trees: 30}
		clf, err := trainer.Train(feats, labels)
		if err != nil {
			return nil, fmt.Errorf("core: family %q: %w", fam, err)
		}
		fc.perFamily = append(fc.perFamily, clf.(*classify.RandomForest))
	}
	return fc, nil
}

// Families returns the family labels in classifier order.
func (fc *FamilyClassifier) Families() []string {
	out := make([]string, len(fc.families))
	copy(out, fc.families)
	return out
}

// Classify returns the most probable family for a script along with the
// per-family probabilities (parallel to Families()).
func (fc *FamilyClassifier) Classify(src string) (string, []float64, error) {
	feat, err := fc.det.featurizeSource(src)
	if err != nil {
		return "", nil, err
	}
	probs := make([]float64, len(fc.perFamily))
	best := 0
	for i, clf := range fc.perFamily {
		probs[i] = clf.PredictProb(feat)
		if probs[i] > probs[best] {
			best = i
		}
	}
	return fc.families[best], probs, nil
}

// featurizeSource runs the extraction + embedding + cluster-feature stages
// on one script and returns the feature vector.
func (d *Detector) featurizeSource(src string) ([]float64, error) {
	paths, err := d.extract(context.Background(), src, parser.Limits{})
	if err != nil {
		return nil, err
	}
	return d.featurize(d.model.Embed(d.keysOf(paths))), nil
}
