package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sparqlog/internal/gmark"
	"sparqlog/internal/loggen"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// graphNodes is the Bib graph size every serve workload runs on: about
// 82k triples, the graph the repository's serving measurements use.
const graphNodes = 20000

// graphSeed seeds the Bib graph. The graph is the endpoint's dataset,
// fixed like a benchmark's scale factor; the run's seed draws the
// traffic. A graph drawn per run would move the costs of the hub
// queries, which set serve-bib's tail and throughput, by a fifth from
// seed to seed, a change in the input rather than in the program.
const graphSeed = 1

// writeGraph generates the Bib graph and writes it as N-Triples, the
// only form in which the server sees the data.
func writeGraph(path string) (*gmark.Graph, error) {
	g := gmark.Generate(gmark.Config{Nodes: graphNodes, Seed: graphSeed})
	st := rdf.NewStore()
	sn := g.Snapshot
	for _, t := range sn.Triples() {
		st.Add(sn.TermOf(t.S), sn.TermOf(t.P), sn.TermOf(t.O))
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := st.WriteNTriples(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	return g, f.Close()
}

// logStream is the serve-log request stream: the calibrated DBpedia14
// profile of the log generator, with its noise, invalid entries,
// streaks and exact repeats, in generation order.
func logStream(n int, seed int64) []string {
	var prof loggen.Profile
	for _, p := range loggen.Profiles() {
		if p.Name == "DBpedia14" {
			prof = p
		}
	}
	out := make([]string, 0, n)
	loggen.GenerateStream(prof, n, seed, func(e string) bool {
		out = append(out, e)
		return true
	})
	return out
}

const bibPrefix = "PREFIX bib: <http://gmark.bib/p/> "

// hubs returns the nodes of one type ordered by in-degree on pred,
// highest first, keeping at most n. Anchoring queries on hubs makes the
// engine, not the front end, carry serve-bib's requests.
func hubs(g *gmark.Graph, t gmark.NodeType, pred string, n int) []string {
	sn := g.Snapshot
	pid := g.PredID[pred]
	nodes := append([]rdf.ID(nil), g.Nodes[t]...)
	deg := make(map[rdf.ID]int, len(nodes))
	for _, id := range nodes {
		deg[id] = len(sn.Subjects(pid, id))
	}
	sort.SliceStable(nodes, func(i, j int) bool { return deg[nodes[i]] > deg[nodes[j]] })
	if len(nodes) > n {
		nodes = nodes[:n]
	}
	out := make([]string, len(nodes))
	for i, id := range nodes {
		out[i] = "<" + sn.TermOf(id) + ">"
	}
	return out
}

// bibTemplates are serve-bib's query shapes: joins, property paths,
// OPTIONAL, FILTER, GROUP BY / ORDER BY, CONSTRUCT and DESCRIBE. Each
// takes one hub anchor of the type it names.
var bibTemplates = []struct {
	anchor string // "paper", "researcher", "journal", "university"
	text   string
}{
	{"paper", "SELECT ?p ?a WHERE { ?p bib:cites %s . ?p bib:authoredBy ?a }"},
	{"researcher", "SELECT ?p ?j ?c WHERE { ?p bib:authoredBy %s . OPTIONAL { ?p bib:publishedIn ?j } OPTIONAL { ?p bib:presentedAt ?c } }"},
	{"researcher", "SELECT DISTINCT ?r2 WHERE { ?r1 bib:knows %s . ?r2 bib:knows ?r1 }"},
	{"paper", "SELECT ?q WHERE { ?q bib:cites/bib:cites %s }"},
	{"researcher", "SELECT ?r WHERE { ?r bib:knows+ %s }"},
	{"paper", "SELECT ?a (COUNT(?p) AS ?n) WHERE { ?p bib:cites %s . ?p bib:authoredBy ?a } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT 20"},
	{"university", "SELECT ?j (COUNT(?p) AS ?n) WHERE { ?a bib:affiliatedWith %s . ?p bib:authoredBy ?a . ?p bib:publishedIn ?j } GROUP BY ?j ORDER BY DESC(?n) ?j"},
	{"paper", "SELECT ?p ?j WHERE { ?p bib:cites %s . ?p bib:publishedIn ?j } ORDER BY ?j ?p LIMIT 50"},
	{"paper", "SELECT ?p ?q WHERE { ?p bib:cites %s . ?q bib:cites ?p FILTER(?q != ?p) }"},
	{"researcher", "CONSTRUCT { ?p bib:authoredBy ?a } WHERE { ?p bib:authoredBy %s . ?p bib:authoredBy ?a }"},
	{"journal", "DESCRIBE ?p WHERE { ?p bib:publishedIn %s }"},
	{"paper", "DESCRIBE %s"},
}

// bibStream returns n distinct serve-bib texts: every (template, hub)
// pair at most once, with canonical duplicates dropped so that no
// request can be answered from the result cache. A query's cost follows
// its anchor's rank, so the order is stratified: each template's hubs
// fall into bands of bibBand neighbouring ranks, and a band's members
// are dealt one to each of bibBand equal stretches of the stream in a
// seeded order. Any stretch of the stream, and so every phase of a run,
// then carries the same mix of light and heavy requests.
func bibStream(g *gmark.Graph, n int, seed int64) ([]string, error) {
	anchors := map[string][]string{
		"paper":      hubs(g, gmark.Paper, "cites", 1400),
		"researcher": hubs(g, gmark.Researcher, "knows", 1400),
		"journal":    hubs(g, gmark.Journal, "publishedIn", 400),
		"university": hubs(g, gmark.University, "affiliatedWith", 400),
	}
	type combo struct {
		t, a int
		key  float64 // position in the stream, in [0, 1)
	}
	rng := rand.New(rand.NewSource(seed))
	var combos []combo
	for ti, t := range bibTemplates {
		m := len(anchors[t.anchor])
		for band := 0; band < m; band += bibBand {
			slots := rng.Perm(bibBand)
			for j := 0; j < bibBand && band+j < m; j++ {
				combos = append(combos, combo{ti, band + j, (float64(slots[j]) + rng.Float64()) / bibBand})
			}
		}
	}
	sort.Slice(combos, func(i, j int) bool { return combos[i].key < combos[j].key })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, c := range combos {
		if len(out) == n {
			break
		}
		t := bibTemplates[c.t]
		text := bibPrefix + fmt.Sprintf(t.text, anchors[t.anchor][c.a])
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("serve-bib template %d: %w", c.t, err)
		}
		key := sparql.QueryString(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, text)
	}
	if len(out) < n {
		return nil, fmt.Errorf("serve-bib: only %d distinct texts, need %d", len(out), n)
	}
	return out, nil
}

// bibBand is how many neighbouring hub ranks share a band in
// serve-bib's stratified order.
const bibBand = 20

// hotTexts is the size of serve-hot's working set.
const hotTexts = 40

// hotSet returns serve-hot's expensive texts: three whole-graph join
// aggregations, each about 10 ms or more uncached on the 82k-triple
// graph, varied by LIMIT so each is a distinct cache entry with a small
// body. They are expensive by construction; set-up checks that each
// one's uncached cost clears the cache's admission threshold with a
// wide margin.
func hotSet(seed int64) []string {
	shapes := []string{
		"SELECT ?a (COUNT(?q) AS ?n) WHERE { ?p bib:authoredBy ?a . ?p bib:cites ?q } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT %d",
		"SELECT ?a (COUNT(?r) AS ?n) WHERE { ?p bib:authoredBy ?a . ?a bib:knows ?r } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT %d",
		"SELECT ?u (COUNT(DISTINCT ?q) AS ?n) WHERE { ?a bib:affiliatedWith ?u . ?p bib:authoredBy ?a . ?p bib:cites ?q } GROUP BY ?u ORDER BY DESC(?n) ?u LIMIT %d",
	}
	var cands []string
	for _, sh := range shapes {
		for l := 5; l <= 70; l += 5 {
			cands = append(cands, bibPrefix+fmt.Sprintf(sh, l))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:hotTexts]
}

// hotStream draws n requests from the hot set with a Zipf skew over a
// seeded rank order.
func hotStream(set []string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(set)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = set[z.Uint64()]
	}
	return out
}

// studyScale sizes the study-log corpus: the full 13-profile corpus at
// this fraction of the paper's log sizes is about 150k entries.
const studyScale = 0.0008

// writeApacheLog generates the 13-profile corpus and writes it as an
// Apache access log, the endpoint-log format sparqlanalyze reads with
// -format apache. It returns the number of entries written.
func writeApacheLog(path string, seed int64) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n := 0
	for _, spec := range loggen.CorpusSpecs(studyScale, seed) {
		loggen.GenerateStream(spec.Profile, spec.N, spec.Seed, func(e string) bool {
			fmt.Fprintf(bw, "10.0.%d.%d - - [17/Oct/2017:10:%02d:%02d +0000] \"GET /sparql?query=%s&format=json HTTP/1.1\" 200 %d\n",
				n%200, n%250, n/60%60, n%60, url.QueryEscape(e), 200+n%4000)
			n++
			return true
		})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	return n, f.Close()
}

// splitLog writes the log's lines into consecutive slice files of size
// lines each, returning their paths.
func splitLog(path, dir string, size int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	var out []string
	for i := 0; i+size <= len(lines); i += size {
		p := filepath.Join(dir, fmt.Sprintf("slice-%04d.log", len(out)))
		if err := os.WriteFile(p, []byte(strings.Join(lines[i:i+size], "")), 0o644); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
