#include "workload/tpch_gen.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"
#include "common/zipf.h"
#include "common/string_util.h"
#include "sched/parallel_for.h"
#include "workload/tpch_schema.h"

namespace perfeval {
namespace workload {
namespace {

using db::DateFromYmd;
using db::Table;
using db::Value;

const char* kRegionNames[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                              "MIDDLE EAST"};

struct NationDef {
  const char* name;
  int region;
};
const NationDef kNations[] = {
    {"ALGERIA", 0},      {"ARGENTINA", 1},  {"BRAZIL", 1},
    {"CANADA", 1},       {"EGYPT", 4},      {"ETHIOPIA", 0},
    {"FRANCE", 3},       {"GERMANY", 3},    {"INDIA", 2},
    {"INDONESIA", 2},    {"IRAN", 4},       {"IRAQ", 4},
    {"JAPAN", 2},        {"JORDAN", 4},     {"KENYA", 0},
    {"MOROCCO", 0},      {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},        {"ROMANIA", 3},    {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},      {"RUSSIA", 3},     {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};
constexpr int kNumNations = 25;

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                "TAKE BACK RETURN"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"};
const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                         "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kNameWords[] = {
    "almond",  "antique", "aquamarine", "azure",     "beige",  "bisque",
    "black",   "blanched", "blue",      "blush",     "brown",  "burlywood",
    "chiffon", "chocolate", "coral",    "cornflower", "cream", "cyan",
    "dark",    "deep",     "dim",       "dodger",    "drab",   "firebrick",
    "floral",  "forest",   "frosted",   "gainsboro", "ghost",  "goldenrod",
    "green",   "grey",     "honeydew",  "hot",       "indian", "ivory",
    "khaki",   "lace",     "lavender",  "lawn",      "lemon",  "light",
    "lime",    "linen",    "magenta",   "maroon",    "medium", "metallic",
    "midnight", "mint",    "misty",     "moccasin",  "navajo", "navy",
    "olive",   "orange",   "orchid",    "pale",      "papaya", "peach"};
const char* kCommentWords[] = {
    "carefully", "quickly",  "furiously", "slyly",    "blithely", "regular",
    "final",     "special",  "express",   "pending",  "ironic",   "even",
    "bold",      "silent",   "unusual",   "deposits", "requests", "accounts",
    "packages",  "theodolites", "instructions", "foxes", "ideas", "pinto",
    "beans",     "dependencies", "excuses", "platelets", "asymptotes",
    "courts",    "dolphins", "multipliers", "sauternes", "warthogs"};

std::string RandomWords(Pcg32& rng, int min_words, int max_words,
                        const char* const* vocab, size_t vocab_size) {
  int n = static_cast<int>(
      rng.NextInRange(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += vocab[rng.NextBounded(static_cast<uint32_t>(vocab_size))];
  }
  return out;
}

std::string RandomComment(Pcg32& rng) {
  return RandomWords(rng, 3, 8, kCommentWords,
                     std::size(kCommentWords));
}

std::string RandomPhone(Pcg32& rng, int64_t nationkey) {
  return StrFormat("%02d-%03u-%03u-%04u", static_cast<int>(nationkey) + 10,
                   rng.NextBounded(900) + 100, rng.NextBounded(900) + 100,
                   rng.NextBounded(9000) + 1000);
}

template <typename T, size_t N>
const char* Pick(Pcg32& rng, T (&array)[N]) {
  return array[rng.NextBounded(static_cast<uint32_t>(N))];
}

/// Work items per generation chunk. Fixed — never derived from the thread
/// count — so chunk boundaries, and with them every RNG stream, are a pure
/// function of (seed, scale_factor).
constexpr int64_t kGenChunkRows = 65536;

}  // namespace

TpchGenerator::TpchGenerator(double scale_factor, uint64_t seed,
                             double fk_zipf_theta)
    : scale_factor_(scale_factor),
      seed_(seed),
      fk_zipf_theta_(fk_zipf_theta) {
  PERFEVAL_CHECK_GT(scale_factor, 0.0);
  PERFEVAL_CHECK_GE(fk_zipf_theta, 0.0);
}

int64_t TpchGenerator::Cardinality(const std::string& table_name) const {
  auto scaled = [this](int64_t base) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(base * scale_factor_)));
  };
  if (table_name == "region") {
    return 5;
  }
  if (table_name == "nation") {
    return kNumNations;
  }
  if (table_name == "supplier") {
    return scaled(kSupplierBase);
  }
  if (table_name == "customer") {
    return scaled(kCustomerBase);
  }
  if (table_name == "part") {
    return scaled(kPartBase);
  }
  if (table_name == "partsupp") {
    return scaled(kPartBase) * kPartsuppPerPart;
  }
  if (table_name == "orders") {
    return scaled(kOrdersBase);
  }
  if (table_name == "lineitem") {
    return scaled(kOrdersBase) * (1 + kMaxLineitemsPerOrder) / 2;
  }
  PERFEVAL_CHECK(false) << "unknown TPC-H table " << table_name;
  return 0;
}

std::shared_ptr<Table> TpchGenerator::Generate(
    const std::string& table_name) {
  if (table_name == "region") {
    return GenerateRegion();
  }
  if (table_name == "nation") {
    return GenerateNation();
  }
  if (table_name == "supplier") {
    return GenerateSupplier();
  }
  if (table_name == "customer") {
    return GenerateCustomer();
  }
  if (table_name == "part") {
    return GeneratePart();
  }
  if (table_name == "partsupp") {
    return GeneratePartsupp();
  }
  if (table_name == "orders") {
    return GenerateOrders();
  }
  if (table_name == "lineitem") {
    return GenerateLineitem();
  }
  PERFEVAL_CHECK(false) << "unknown TPC-H table " << table_name;
  return nullptr;
}

void TpchGenerator::LoadAll(db::Database* database) {
  // Orders before lineitem (lineitem derives from order info).
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    database->RegisterTable(name, Generate(name));
  }
}

std::shared_ptr<Table> TpchGenerator::BuildChunked(
    int64_t units, uint64_t stream, const db::Schema& schema,
    const std::function<void(Pcg32&, int64_t, int64_t, Table*)>& fill) {
  auto table = std::make_shared<Table>(schema);
  if (units <= 0) {
    return table;
  }
  int64_t num_chunks = (units + kGenChunkRows - 1) / kGenChunkRows;
  // Every chunk draws from its own stream, derived from (table stream,
  // chunk index) — workers never share RNG state, and a chunk's content
  // does not depend on which worker generated it or what ran before it.
  auto chunk_rng = [this, stream](int64_t chunk) {
    return Pcg32(seed_,
                 MixSeed(stream, static_cast<uint64_t>(chunk), 0x74706368ULL));
  };
  if (threads_ <= 1 || num_chunks <= 1) {
    // Serial path uses the same per-chunk streams, so it produces exactly
    // the bytes the parallel path's chunk-order concatenation produces.
    for (int64_t c = 0; c < num_chunks; ++c) {
      Pcg32 rng = chunk_rng(c);
      int64_t begin = c * kGenChunkRows;
      fill(rng, begin, std::min(units, begin + kGenChunkRows), table.get());
    }
    return table;
  }
  std::vector<std::unique_ptr<Table>> parts(
      static_cast<size_t>(num_chunks));
  sched::ParallelFor(
      threads_, static_cast<size_t>(num_chunks), [&](size_t c) {
        Pcg32 rng = chunk_rng(static_cast<int64_t>(c));
        auto part = std::make_unique<Table>(schema);
        int64_t begin = static_cast<int64_t>(c) * kGenChunkRows;
        fill(rng, begin, std::min(units, begin + kGenChunkRows), part.get());
        parts[c] = std::move(part);
      });
  for (const std::unique_ptr<Table>& part : parts) {
    table->AppendTable(*part);
  }
  return table;
}

std::shared_ptr<Table> TpchGenerator::GenerateRegion() {
  Pcg32 rng(seed_, 1);
  auto table = std::make_shared<Table>(RegionSchema());
  for (int64_t i = 0; i < 5; ++i) {
    table->AppendRow({Value::Int64(i), Value::String(kRegionNames[i]),
                      Value::String(RandomComment(rng))});
  }
  return table;
}

std::shared_ptr<Table> TpchGenerator::GenerateNation() {
  Pcg32 rng(seed_, 2);
  auto table = std::make_shared<Table>(NationSchema());
  for (int64_t i = 0; i < kNumNations; ++i) {
    table->AppendRow({Value::Int64(i), Value::String(kNations[i].name),
                      Value::Int64(kNations[i].region),
                      Value::String(RandomComment(rng))});
  }
  return table;
}

std::shared_ptr<Table> TpchGenerator::GenerateSupplier() {
  Pcg32 rng(seed_, 3);
  int64_t n = Cardinality("supplier");
  auto table = std::make_shared<Table>(SupplierSchema());
  table->ReserveRows(n);
  for (int64_t i = 1; i <= n; ++i) {
    int64_t nation = rng.NextBounded(kNumNations);
    std::string comment = RandomComment(rng);
    // ~0.5% of suppliers carry the "Customer...Complaints" marker (Q16).
    if (rng.NextBernoulli(0.005)) {
      comment += " Customer Complaints";
    }
    table->AppendRow(
        {Value::Int64(i), Value::String(StrFormat("Supplier#%09lld",
                                                  static_cast<long long>(i))),
         Value::String(RandomWords(rng, 2, 4, kNameWords,
                                   std::size(kNameWords))),
         Value::Int64(nation), Value::String(RandomPhone(rng, nation)),
         Value::Double(rng.NextDoubleInRange(-999.99, 9999.99)),
         Value::String(comment)});
  }
  return table;
}

std::shared_ptr<Table> TpchGenerator::GenerateCustomer() {
  int64_t n = Cardinality("customer");
  return BuildChunked(
      n, 4, CustomerSchema(),
      [](Pcg32& rng, int64_t begin, int64_t end, Table* out) {
        out->ReserveRows(static_cast<size_t>(end - begin));
        for (int64_t i = begin + 1; i <= end; ++i) {
          int64_t nation = rng.NextBounded(kNumNations);
          out->AppendRow(
              {Value::Int64(i),
               Value::String(StrFormat("Customer#%09lld",
                                       static_cast<long long>(i))),
               Value::String(RandomWords(rng, 2, 4, kNameWords,
                                         std::size(kNameWords))),
               Value::Int64(nation), Value::String(RandomPhone(rng, nation)),
               Value::Double(rng.NextDoubleInRange(-999.99, 9999.99)),
               Value::String(Pick(rng, kSegments)),
               Value::String(RandomComment(rng))});
        }
      });
}

std::shared_ptr<Table> TpchGenerator::GeneratePart() {
  int64_t n = Cardinality("part");
  return BuildChunked(
      n, 5, PartSchema(),
      [](Pcg32& rng, int64_t begin, int64_t end, Table* out) {
        out->ReserveRows(static_cast<size_t>(end - begin));
        for (int64_t i = begin + 1; i <= end; ++i) {
          int mfgr = static_cast<int>(rng.NextBounded(5)) + 1;
          int brand = mfgr * 10 + static_cast<int>(rng.NextBounded(5)) + 1;
          std::string type = std::string(Pick(rng, kTypes1)) + " " +
                             Pick(rng, kTypes2) + " " + Pick(rng, kTypes3);
          std::string container = std::string(Pick(rng, kContainers1)) +
                                  " " + Pick(rng, kContainers2);
          out->AppendRow(
              {Value::Int64(i),
               Value::String(RandomWords(rng, 4, 5, kNameWords,
                                         std::size(kNameWords))),
               Value::String(StrFormat("Manufacturer#%d", mfgr)),
               Value::String(StrFormat("Brand#%d", brand)),
               Value::String(type), Value::Int64(rng.NextInRange(1, 50)),
               Value::String(container),
               Value::Double(900.0 + static_cast<double>(i % 1000) / 10.0),
               Value::String(RandomComment(rng))});
        }
      });
}

std::shared_ptr<Table> TpchGenerator::GeneratePartsupp() {
  int64_t parts = Cardinality("part");
  int64_t suppliers = Cardinality("supplier");
  // Chunked by part key: each part emits its kPartsuppPerPart rows inside
  // one chunk, so the (p, s) enumeration order is unchanged.
  return BuildChunked(
      parts, 6, PartsuppSchema(),
      [suppliers](Pcg32& rng, int64_t begin, int64_t end, Table* out) {
        out->ReserveRows(static_cast<size_t>(end - begin) *
                         kPartsuppPerPart);
        for (int64_t p = begin + 1; p <= end; ++p) {
          for (int s = 0; s < kPartsuppPerPart; ++s) {
            // TPC-H's supplier spreading formula keeps (p, s) pairs unique.
            int64_t suppkey =
                (p + s * (suppliers / kPartsuppPerPart + 1)) % suppliers + 1;
            out->AppendRow(
                {Value::Int64(p), Value::Int64(suppkey),
                 Value::Int64(rng.NextInRange(1, 9999)),
                 Value::Double(rng.NextDoubleInRange(1.0, 1000.0)),
                 Value::String(RandomComment(rng))});
          }
        }
      });
}

std::shared_ptr<Table> TpchGenerator::GenerateOrders() {
  int64_t n = Cardinality("orders");
  int64_t customers = Cardinality("customer");
  order_infos_.assign(static_cast<size_t>(n), OrderInfo{});

  const int32_t start_date = DateFromYmd(1992, 1, 1);
  const int32_t end_date = DateFromYmd(1998, 8, 2);
  const int32_t current_date = DateFromYmd(1995, 6, 17);

  // Built once and shared: ZipfGenerator::Next is const (the only mutable
  // state is the caller's RNG), so concurrent chunks can draw from it.
  std::unique_ptr<ZipfGenerator> cust_zipf;
  if (fk_zipf_theta_ > 0.0) {
    cust_zipf = std::make_unique<ZipfGenerator>(
        static_cast<uint64_t>(customers), fk_zipf_theta_);
  }
  auto table = BuildChunked(
      n, 7, OrdersSchema(),
      [&, customers](Pcg32& rng, int64_t begin, int64_t end, Table* out) {
        out->ReserveRows(static_cast<size_t>(end - begin));
        for (int64_t i = begin + 1; i <= end; ++i) {
          // TPC-H order keys are sparse; we keep them dense for simplicity
          // (lineitem and the date-ordering invariants rely on row i
          // holding orderkey i+1).
          int64_t orderkey = i;
          int64_t custkey = cust_zipf
                                ? static_cast<int64_t>(cust_zipf->Next(rng))
                                : rng.NextInRange(1, customers);
          int32_t orderdate = static_cast<int32_t>(
              rng.NextInRange(start_date, end_date));
          int num_lines =
              static_cast<int>(rng.NextInRange(1, kMaxLineitemsPerOrder));
          // Order status derives from the order date relative to "today":
          // old orders are finished (F), recent ones open (O), around the
          // boundary partially shipped (P).
          const char* status = "O";
          if (orderdate + 90 < current_date) {
            status = "F";
          } else if (orderdate < current_date) {
            status = "P";
          }
          out->AppendRow(
              {Value::Int64(orderkey), Value::Int64(custkey),
               Value::String(status),
               Value::Double(rng.NextDoubleInRange(800.0, 500000.0)),
               Value::Date(orderdate), Value::String(Pick(rng, kPriorities)),
               Value::String(
                   StrFormat("Clerk#%09u", rng.NextBounded(1000) + 1)),
               Value::Int64(0), Value::String(RandomComment(rng))});
          // Chunks own disjoint index ranges of order_infos_, pre-sized
          // above, so concurrent writes never alias.
          order_infos_[static_cast<size_t>(i - 1)] = {orderkey, orderdate,
                                                      num_lines};
        }
      });
  orders_generated_ = true;
  return table;
}

std::shared_ptr<Table> TpchGenerator::GenerateLineitem() {
  if (!orders_generated_) {
    (void)GenerateOrders();
  }
  int64_t parts = Cardinality("part");
  int64_t suppliers = Cardinality("supplier");
  const int32_t current_date = DateFromYmd(1995, 6, 17);

  std::unique_ptr<ZipfGenerator> part_zipf;
  if (fk_zipf_theta_ > 0.0) {
    part_zipf = std::make_unique<ZipfGenerator>(
        static_cast<uint64_t>(parts), fk_zipf_theta_);
  }
  // Chunked by order index — an order's lines always come from one chunk,
  // preserving the clustered-by-orderkey layout the merge join exploits.
  return BuildChunked(
      static_cast<int64_t>(order_infos_.size()), 8, LineitemSchema(),
      [&, parts, suppliers](Pcg32& rng, int64_t begin, int64_t end,
                            Table* out) {
        for (int64_t o = begin; o < end; ++o) {
          const OrderInfo& order = order_infos_[static_cast<size_t>(o)];
          for (int line = 1; line <= order.num_lines; ++line) {
            int64_t partkey =
                part_zipf ? static_cast<int64_t>(part_zipf->Next(rng))
                          : rng.NextInRange(1, parts);
            int64_t suppkey =
                (partkey + rng.NextBounded(kPartsuppPerPart) *
                               (suppliers / kPartsuppPerPart + 1)) %
                    suppliers +
                1;
            double quantity = static_cast<double>(rng.NextInRange(1, 50));
            double price_base =
                900.0 + static_cast<double>(partkey % 1000) / 10.0;
            double extendedprice = quantity * price_base;
            double discount =
                static_cast<double>(rng.NextInRange(0, 10)) / 100.0;
            double tax = static_cast<double>(rng.NextInRange(0, 8)) / 100.0;
            int32_t shipdate =
                order.orderdate +
                static_cast<int32_t>(rng.NextInRange(1, 121));
            int32_t commitdate =
                order.orderdate +
                static_cast<int32_t>(rng.NextInRange(30, 90));
            int32_t receiptdate =
                shipdate + static_cast<int32_t>(rng.NextInRange(1, 30));
            // Return flag and line status derive from dates, as in the
            // spec: items received in the past are returned (R) or
            // accepted (A); future/unshipped ones are N. Status F when
            // shipped in the past.
            const char* returnflag = "N";
            if (receiptdate <= current_date) {
              returnflag = rng.NextBernoulli(0.5) ? "R" : "A";
            }
            const char* linestatus = shipdate > current_date ? "O" : "F";
            out->AppendRow(
                {Value::Int64(order.orderkey), Value::Int64(partkey),
                 Value::Int64(suppkey), Value::Int64(line),
                 Value::Double(quantity), Value::Double(extendedprice),
                 Value::Double(discount), Value::Double(tax),
                 Value::String(returnflag), Value::String(linestatus),
                 Value::Date(shipdate), Value::Date(commitdate),
                 Value::Date(receiptdate),
                 Value::String(Pick(rng, kShipInstructs)),
                 Value::String(Pick(rng, kShipModes)),
                 Value::String(RandomComment(rng))});
          }
        }
      });
}

}  // namespace workload
}  // namespace perfeval
