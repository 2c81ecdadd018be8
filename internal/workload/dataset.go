package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Dataset produces deterministic record values for key indexes. The paper
// adapts YCSB "to accept user-specified datasets for data insertion, as
// opposed to the default use of random strings as values" (§6.1), using
// the geonames Cities dataset plus two internal machine-generated KV
// datasets. Offline, we synthesize structurally equivalent datasets: what
// the compression experiments (Table 2) depend on is shared structure
// across records, which these generators preserve.
type Dataset interface {
	// Name identifies the dataset ("cities", "kv1", "kv2", "random").
	Name() string
	// Record returns the value for key index i. Deterministic in i.
	Record(i int64) []byte
	// AvgRecordSize returns the approximate mean record length in bytes.
	AvgRecordSize() int
}

// ---- Cities ----

// citiesDataset emits CSV rows shaped like the geonames export:
// name,asciiname,country,region,population,lat,lng,timezone
type citiesDataset struct{}

// NewCities returns the synthetic Cities dataset.
func NewCities() Dataset { return citiesDataset{} }

func (citiesDataset) Name() string { return "cities" }

var (
	cityPrefixes = []string{
		"San", "Santa", "New", "Port", "Lake", "Fort", "Mount", "North",
		"South", "East", "West", "Saint", "El", "La", "Las", "Los", "Grand",
		"Little", "Upper", "Lower",
	}
	cityRoots = []string{
		"field", "ville", "ton", "burg", "ford", "haven", "wood", "land",
		"bridge", "port", "mouth", "stad", "grad", "pur", "abad", "polis",
		"chester", "cester", "ham", "wick", "dale", "view", "springs", "falls",
	}
	cityStems = []string{
		"Alba", "Bel", "Cala", "Dor", "Elm", "Fair", "Glen", "Hart", "Iron",
		"Jas", "Kings", "Lin", "Mill", "Nor", "Oak", "Pine", "Quin", "River",
		"Stone", "Thorn", "Val", "Win", "York", "Zan", "Ash", "Birch", "Cedar",
	}
	countries = []string{
		"US", "CN", "IN", "BR", "RU", "JP", "DE", "FR", "GB", "IT", "CA",
		"AU", "ES", "MX", "ID", "NL", "SA", "TR", "CH", "AR", "SE", "NO",
	}
	regions = []string{
		"California", "Bavaria", "Ontario", "Queensland", "Guangdong",
		"Maharashtra", "Sao Paulo", "Hokkaido", "Provence", "Andalusia",
		"Texas", "Siberia", "Anatolia", "Patagonia", "Yorkshire", "Flanders",
	}
	timezones = []string{
		"America/New_York", "America/Los_Angeles", "Europe/Berlin",
		"Europe/Paris", "Asia/Shanghai", "Asia/Tokyo", "Asia/Kolkata",
		"Australia/Sydney", "America/Sao_Paulo", "Europe/Moscow",
		"Africa/Cairo", "America/Mexico_City",
	}
)

func (citiesDataset) Record(i int64) []byte {
	rng := rand.New(rand.NewSource(i*2654435761 + 99991))
	var name strings.Builder
	if rng.Intn(3) == 0 {
		name.WriteString(cityPrefixes[rng.Intn(len(cityPrefixes))])
		name.WriteByte(' ')
	}
	name.WriteString(cityStems[rng.Intn(len(cityStems))])
	name.WriteString(cityRoots[rng.Intn(len(cityRoots))])
	n := name.String()
	pop := int64(500+rng.Intn(100_000)) * int64(1+rng.Intn(200))
	lat := rng.Float64()*180 - 90
	lng := rng.Float64()*360 - 180
	row := fmt.Sprintf("%s,%s,%s,%s,%d,%.5f,%.5f,%s",
		n, asciiFold(n),
		countries[rng.Intn(len(countries))],
		regions[rng.Intn(len(regions))],
		pop, lat, lng,
		timezones[rng.Intn(len(timezones))])
	return []byte(row)
}

func (citiesDataset) AvgRecordSize() int { return 80 }

func asciiFold(s string) string { return strings.ToLower(strings.ReplaceAll(s, " ", "-")) }

// ---- KV1: machine-generated key-value records (JSON-ish) ----

// kv1Dataset emits JSON-like serialized service records sharing a common
// schema, mimicking machine-generated data with distinctive patterns
// inside the values — the regime where PBC shines (paper Table 2).
type kv1Dataset struct{}

// NewKV1 returns the synthetic KV1 dataset.
func NewKV1() Dataset { return kv1Dataset{} }

func (kv1Dataset) Name() string { return "kv1" }

var (
	kv1Status  = []string{"ACTIVE", "INACTIVE", "SUSPENDED", "PENDING"}
	kv1Channel = []string{"mobile_app", "web_portal", "mini_program", "api_gateway"}
	kv1City    = []string{"hangzhou", "shanghai", "beijing", "shenzhen", "chengdu", "xian"}
)

func (kv1Dataset) Record(i int64) []byte {
	rng := rand.New(rand.NewSource(i*40503 + 7))
	uid := 2088_0000_0000 + i
	row := fmt.Sprintf(
		`{"user_id":"%d","status":"%s","level":%d,"channel":"%s","city":"%s","score":%d,"last_login_ts":%d,"tags":["t%d","t%d"],"balance_cents":%d}`,
		uid,
		kv1Status[rng.Intn(len(kv1Status))],
		1+rng.Intn(9),
		kv1Channel[rng.Intn(len(kv1Channel))],
		kv1City[rng.Intn(len(kv1City))],
		rng.Intn(1000),
		1700_000_000+rng.Int63n(30_000_000),
		rng.Intn(64), rng.Intn(64),
		rng.Int63n(10_000_000))
	return []byte(row)
}

func (kv1Dataset) AvgRecordSize() int { return 190 }

// ---- KV2: machine-generated delimited records ----

// kv2Dataset emits pipe-delimited transaction-ledger rows with fixed field
// templates, the second machine-generated regime of Table 2.
type kv2Dataset struct{}

// NewKV2 returns the synthetic KV2 dataset.
func NewKV2() Dataset { return kv2Dataset{} }

func (kv2Dataset) Name() string { return "kv2" }

var (
	kv2Biz   = []string{"TRADE_PAY", "TRANSFER", "REFUND", "WITHDRAW", "DEPOSIT"}
	kv2State = []string{"SUCCESS", "FAIL", "TIMEOUT", "PROCESSING"}
	kv2Bank  = []string{"ICBC", "CCB", "ABC", "BOC", "CMB", "SPDB"}
)

func (kv2Dataset) Record(i int64) []byte {
	rng := rand.New(rand.NewSource(i*65537 + 13))
	txID := fmt.Sprintf("20250%d10%012d", 1+rng.Intn(9), i)
	row := fmt.Sprintf(
		"%s|%s|%s|CNY|%d.%02d|%s|2025-0%d-1%d 0%d:%02d:%02d|out_biz_no_%d|settle_batch_%06d|MEMO:auto reconciliation entry",
		txID,
		kv2Biz[rng.Intn(len(kv2Biz))],
		kv2State[rng.Intn(len(kv2State))],
		rng.Int63n(1_000_000), rng.Intn(100),
		kv2Bank[rng.Intn(len(kv2Bank))],
		1+rng.Intn(9), rng.Intn(9),
		rng.Intn(10), rng.Intn(60), rng.Intn(60),
		rng.Int63n(1_000_000_000),
		rng.Intn(1_000_000))
	return []byte(row)
}

func (kv2Dataset) AvgRecordSize() int { return 135 }

// ---- Random: YCSB default incompressible values ----

// randomDataset emits pseudo-random printable bytes of a fixed size, the
// YCSB default. Used as the incompressible control.
type randomDataset struct{ size int }

// NewRandom returns a dataset of incompressible size-byte values.
func NewRandom(size int) Dataset {
	if size < 1 {
		size = 100
	}
	return randomDataset{size: size}
}

func (randomDataset) Name() string { return "random" }

func (d randomDataset) Record(i int64) []byte {
	rng := rand.New(rand.NewSource(i*31337 + 271828))
	b := make([]byte, d.size)
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/"
	for j := range b {
		b[j] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

func (d randomDataset) AvgRecordSize() int { return d.size }

// ParseDataset resolves a dataset by its name, in any case: cities, kv1,
// kv2 or random. Any other name is an error.
func ParseDataset(name string) (Dataset, error) {
	switch strings.ToLower(name) {
	case "cities":
		return NewCities(), nil
	case "kv1":
		return NewKV1(), nil
	case "kv2":
		return NewKV2(), nil
	case "random":
		return NewRandom(100), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (cities | kv1 | kv2 | random)", name)
}

// DatasetByName resolves a dataset by its name; defaults to cities.
// Flags parse with ParseDataset, which refuses a name it does not know.
func DatasetByName(name string) Dataset {
	if ds, err := ParseDataset(name); err == nil {
		return ds
	}
	return NewCities()
}

// sampleSpan is the range of record indexes Sample draws from.
const sampleSpan = 1 << 20

// Sample returns n records drawn deterministically from the dataset's
// first sampleSpan records, used to pre-train compression dictionaries
// (paper §4.2: "we construct the dictionary offline using samples from
// data records"). The indexes are scrambled the way ScrambledZipfian
// scrambles ranks: the generators seed math/rand linearly in the index, and
// a fixed stride through such seeds never shows some values of a closed set
// (stride 17 over KV1 never produced status "PENDING"). Every process gets
// the same sample, so two of them train identical pattern sets.
func Sample(d Dataset, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.Record(int64(fnvHash64(uint64(i)) % sampleSpan))
	}
	return out
}
