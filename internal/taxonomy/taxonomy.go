// Package taxonomy encodes the tutorial's classification of multiple-
// clustering methods (slides 20–22 and 116) and regenerates its comparison
// table from the metadata of the algorithms implemented in this module.
package taxonomy

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SearchSpace is the primary taxonomy axis: where the clusterings live.
type SearchSpace int

const (
	OriginalSpace SearchSpace = iota
	TransformedSpace
	SubspaceProjections
	MultipleSources
)

func (s SearchSpace) String() string {
	switch s {
	case OriginalSpace:
		return "original"
	case TransformedSpace:
		return "transformed"
	case SubspaceProjections:
		return "subspaces"
	case MultipleSources:
		return "multi-source"
	default:
		return fmt.Sprintf("SearchSpace(%d)", int(s))
	}
}

// Processing distinguishes iterative extraction from simultaneous
// optimization of all solutions.
type Processing int

const (
	IndependentProcessing Processing = iota
	IterativeProcessing
	SimultaneousProcessing
)

func (p Processing) String() string {
	switch p {
	case IndependentProcessing:
		return "independent"
	case IterativeProcessing:
		return "iterative"
	case SimultaneousProcessing:
		return "simultaneous"
	default:
		return fmt.Sprintf("Processing(%d)", int(p))
	}
}

// Knowledge states whether prior clusterings are consumed.
type Knowledge int

const (
	NoKnowledge Knowledge = iota
	GivenClustering
	GivenViews
)

func (k Knowledge) String() string {
	switch k {
	case NoKnowledge:
		return "no"
	case GivenClustering:
		return "given clustering"
	case GivenViews:
		return "given views"
	default:
		return fmt.Sprintf("Knowledge(%d)", int(k))
	}
}

// Solutions describes how many clusterings the method produces.
type Solutions int

const (
	OneSolution Solutions = iota
	TwoSolutions
	ManySolutions
)

func (s Solutions) String() string {
	switch s {
	case OneSolution:
		return "m = 1"
	case TwoSolutions:
		return "m = 2"
	case ManySolutions:
		return "m >= 2"
	default:
		return fmt.Sprintf("Solutions(%d)", int(s))
	}
}

// ViewHandling describes how the method treats views/subspaces.
type ViewHandling int

const (
	NoViewHandling ViewHandling = iota
	DissimilarViews
	NoDissimilarity
	GivenViewsHandling
)

func (v ViewHandling) String() string {
	switch v {
	case NoViewHandling:
		return ""
	case DissimilarViews:
		return "dissimilarity"
	case NoDissimilarity:
		return "no dissimilarity"
	case GivenViewsHandling:
		return "given views"
	default:
		return fmt.Sprintf("ViewHandling(%d)", int(v))
	}
}

// Entry is one row of the taxonomy table.
type Entry struct {
	Algorithm    string // implementation name in this module
	Reference    string // the surveyed paper
	Space        SearchSpace
	Processing   Processing
	Knowledge    Knowledge
	Solutions    Solutions
	Views        ViewHandling
	Exchangeable bool   // true when the underlying cluster definition can be swapped
	Package      string // implementing package
}

// Registry returns the taxonomy rows for every algorithm implemented in the
// module, mirroring the tutorial's table (slide 116).
func Registry() []Entry {
	return []Entry{
		{"MetaClustering", "Caruana et al. 2006", OriginalSpace, IndependentProcessing, NoKnowledge, ManySolutions, NoViewHandling, true, "metaclust"},
		{"COALA", "Bae & Bailey 2006", OriginalSpace, IterativeProcessing, GivenClustering, TwoSolutions, NoViewHandling, false, "alternative"},
		{"CIB", "Gondek & Hofmann 2003/2004", OriginalSpace, IterativeProcessing, GivenClustering, TwoSolutions, NoViewHandling, false, "alternative"},
		{"MinCEntropy", "Vinh & Epps 2010", OriginalSpace, IterativeProcessing, GivenClustering, ManySolutions, NoViewHandling, false, "alternative"},
		{"CondEns", "Gondek & Hofmann 2005", OriginalSpace, IndependentProcessing, GivenClustering, TwoSolutions, NoViewHandling, true, "alternative"},
		{"Flexible", "this module (slide 27 made concrete)", OriginalSpace, IterativeProcessing, GivenClustering, ManySolutions, NoViewHandling, true, "alternative"},
		{"DecorrelatedKMeans", "Jain et al. 2008", OriginalSpace, SimultaneousProcessing, NoKnowledge, ManySolutions, NoViewHandling, false, "simultaneous"},
		{"CAMI", "Dang & Bailey 2010a", OriginalSpace, SimultaneousProcessing, NoKnowledge, ManySolutions, NoViewHandling, false, "simultaneous"},
		{"ContingencyUniformity", "Hossain et al. 2010", OriginalSpace, SimultaneousProcessing, NoKnowledge, TwoSolutions, NoViewHandling, false, "simultaneous"},
		{"MetricFlip", "Davidson & Qi 2008", TransformedSpace, IterativeProcessing, GivenClustering, TwoSolutions, DissimilarViews, true, "orthogonal"},
		{"AlternativeTransform", "Qi & Davidson 2009", TransformedSpace, IterativeProcessing, GivenClustering, TwoSolutions, DissimilarViews, true, "orthogonal"},
		{"OrthogonalProjections", "Cui et al. 2007", TransformedSpace, IterativeProcessing, GivenClustering, ManySolutions, DissimilarViews, true, "orthogonal"},
		{"CLIQUE", "Agrawal et al. 1998", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"SCHISM", "Sequeira & Zaki 2004", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"SUBCLU", "Kailing et al. 2004b", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"FIRES", "Kriegel et al. 2005", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, true, "subspace"},
		{"DUSC", "Assent et al. 2007", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"PROCLUS", "Aggarwal et al. 1999", SubspaceProjections, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, false, "subspace"},
		{"ORCLUS", "Aggarwal & Yu 2000", SubspaceProjections, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, false, "subspace"},
		{"PreDeCon", "Böhm et al. 2004a", SubspaceProjections, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, false, "subspace"},
		{"DOC", "Procopiuc et al. 2002", SubspaceProjections, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, false, "subspace"},
		{"MineClus", "Yiu & Mamoulis 2003", SubspaceProjections, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, false, "subspace"},
		{"ENCLUS", "Cheng et al. 1999", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"RIS", "Kailing et al. 2003", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, NoDissimilarity, true, "subspace"},
		{"STATPC", "Moise & Sander 2008", SubspaceProjections, SimultaneousProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"RESCU", "Müller et al. 2009c", SubspaceProjections, SimultaneousProcessing, NoKnowledge, ManySolutions, NoDissimilarity, false, "subspace"},
		{"OSCLU", "Günnemann et al. 2009", SubspaceProjections, SimultaneousProcessing, NoKnowledge, ManySolutions, DissimilarViews, false, "subspace"},
		{"ASCLU", "Günnemann et al. 2010", SubspaceProjections, SimultaneousProcessing, GivenClustering, ManySolutions, DissimilarViews, false, "subspace"},
		{"MSC", "Niu & Dy 2010", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions, DissimilarViews, true, "multiview"},
		{"CoEM", "Bickel & Scheffer 2004", MultipleSources, SimultaneousProcessing, NoKnowledge, OneSolution, GivenViewsHandling, false, "multiview"},
		{"MVDBSCAN", "Kailing et al. 2004a", MultipleSources, SimultaneousProcessing, NoKnowledge, OneSolution, GivenViewsHandling, false, "multiview"},
		{"TwoViewSpectral", "de Sa 2005", MultipleSources, SimultaneousProcessing, NoKnowledge, OneSolution, GivenViewsHandling, false, "multiview"},
		{"RandomProjectionEnsemble", "Fern & Brodley 2003", MultipleSources, IndependentProcessing, NoKnowledge, OneSolution, NoDissimilarity, true, "multiview"},
		{"CSPA", "Strehl & Ghosh 2002", MultipleSources, IndependentProcessing, GivenViews, OneSolution, GivenViewsHandling, true, "multiview"},
		{"ParallelUniverses", "Wiswedel et al. 2010", MultipleSources, SimultaneousProcessing, NoKnowledge, ManySolutions, GivenViewsHandling, false, "multiview"},
		{"DistributedDBSCAN", "Januzaj et al. 2004", MultipleSources, SimultaneousProcessing, NoKnowledge, OneSolution, GivenViewsHandling, false, "multiview"},
	}
}

// Lookup returns the entry for the named algorithm.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.Algorithm, name) {
			return e, true
		}
	}
	return Entry{}, false
}

// Cells renders the entry's classification as the comparison table's
// cells: search space, processing, given knowledge, number of
// clusterings, subspace detection ("-" when the method handles no views)
// and flexibility.
func (e Entry) Cells() []string {
	views := e.Views.String()
	if views == "" {
		views = "-"
	}
	flex := "specialized"
	if e.Exchangeable {
		flex = "exchang. def."
	}
	return []string{e.Space.String(), e.Processing.String(), e.Knowledge.String(), e.Solutions.String(), views, flex}
}

// WriteTable renders the taxonomy table (the slide-116 comparison) to w.
func WriteTable(w io.Writer) error {
	entries := Registry()
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Space != entries[j].Space {
			return entries[i].Space < entries[j].Space
		}
		return entries[i].Algorithm < entries[j].Algorithm
	})
	const format = "%-26s %-26s %-12s %-13s %-17s %-7s %-17s %s\n"
	if _, err := fmt.Fprintf(w, format,
		"algorithm", "reference", "space", "processing", "given knowledge", "#clust", "subspace detec.", "flexibility"); err != nil {
		return err
	}
	for _, e := range entries {
		row := []any{e.Algorithm, e.Reference}
		for _, c := range e.Cells() {
			row = append(row, c)
		}
		if _, err := fmt.Fprintf(w, format, row...); err != nil {
			return err
		}
	}
	return nil
}
