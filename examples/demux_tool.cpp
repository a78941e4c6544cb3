// demux_tool — assign sequencing reads to sample barcodes with the
// library's kaori-style demultiplexer (PatternSetTrie + DemuxReads, a
// capped walk of the barcode trie at every read offset). See
// docs/DICTIONARY.md for the walkthrough this tool anchors.
//
//   $ ./demux_tool                                # demo on simulated reads
//   $ ./demux_tool reads.fq acgtacgt,ttttcccc 1   # demux a FASTQ file
//
// File mode takes a FASTQ of reads, a comma-separated list of equal-length
// barcodes, and an optional mismatch budget (default 1), and prints one
// line per read: read name, outcome, barcode index, mismatches, offset.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bwtk.h"
#include "util/random.h"

namespace {

const char* OutcomeName(bwtk::DemuxAssignment::Outcome outcome) {
  switch (outcome) {
    case bwtk::DemuxAssignment::Outcome::kAssigned:
      return "assigned";
    case bwtk::DemuxAssignment::Outcome::kAmbiguous:
      return "ambiguous";
    case bwtk::DemuxAssignment::Outcome::kUnassigned:
      return "unassigned";
  }
  return "?";
}

// Demo: 8 well-separated 8 bp barcodes, 2000 simulated 48 bp reads each
// carrying one barcode at offset 8 with up to one sequencing error, plus
// 200 barcode-free reads. Demultiplexes at k = 1 and scores the calls
// against the known ground truth.
int Demo() {
  const std::vector<std::string> barcode_ascii = {
      "aacctgcg", "ttggacta", "catgcagt", "gtactcaa",
      "acgtggta", "tgcaatcg", "ctaagtgc", "gattcgac"};
  const auto barcodes = bwtk::PatternSetTrie::Build(barcode_ascii).value();

  bwtk::Rng rng(2017);
  std::vector<std::vector<bwtk::DnaCode>> reads;
  std::vector<int32_t> truth;  // barcode id, or -1 for barcode-free reads
  for (int i = 0; i < 2000; ++i) {
    const int32_t id = static_cast<int32_t>(rng.NextBounded(8));
    std::vector<bwtk::DnaCode> read;
    for (int j = 0; j < 8; ++j) {
      read.push_back(static_cast<bwtk::DnaCode>(rng.NextBounded(4)));
    }
    for (const char c : barcode_ascii[static_cast<size_t>(id)]) {
      read.push_back(bwtk::CharToCode(c));
    }
    if (rng.NextBounded(4) == 0) {  // one sequencing error in the barcode
      const size_t where = 8 + rng.NextBounded(8);
      read[where] = static_cast<bwtk::DnaCode>((read[where] + 1) & 3);
    }
    while (read.size() < 48) {
      read.push_back(static_cast<bwtk::DnaCode>(rng.NextBounded(4)));
    }
    reads.push_back(std::move(read));
    truth.push_back(id);
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<bwtk::DnaCode> read;
    for (int j = 0; j < 48; ++j) {
      read.push_back(static_cast<bwtk::DnaCode>(rng.NextBounded(4)));
    }
    reads.push_back(std::move(read));
    truth.push_back(-1);
  }

  std::printf("demultiplexing %zu simulated reads against %zu barcodes "
              "(k = 1)...\n\n", reads.size(), barcodes.num_patterns());
  const auto result =
      bwtk::DemuxReads(barcodes, reads, {.max_mismatches = 1});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::vector<size_t> per_barcode(barcodes.num_patterns(), 0);
  size_t ambiguous = 0;
  size_t unassigned = 0;
  size_t correct = 0;
  size_t wrong = 0;
  for (size_t i = 0; i < result->size(); ++i) {
    const bwtk::DemuxAssignment& a = (*result)[i];
    switch (a.outcome) {
      case bwtk::DemuxAssignment::Outcome::kAssigned:
        ++per_barcode[static_cast<size_t>(a.barcode)];
        (a.barcode == truth[i] ? correct : wrong) += 1;
        break;
      case bwtk::DemuxAssignment::Outcome::kAmbiguous:
        ++ambiguous;
        break;
      case bwtk::DemuxAssignment::Outcome::kUnassigned:
        ++unassigned;
        break;
    }
  }
  for (size_t b = 0; b < per_barcode.size(); ++b) {
    std::printf("  %s  %5zu reads\n", barcode_ascii[b].c_str(),
                per_barcode[b]);
  }
  std::printf("  ambiguous   %5zu\n  unassigned  %5zu\n", ambiguous,
              unassigned);
  std::printf("\n%zu of %zu barcode-carrying reads assigned to the true "
              "sample, %zu misassigned\n", correct, truth.size() - 200,
              wrong);
  // A handful of misassignments is inherent: a random flank can mimic a
  // barcode more closely than the errored true barcode. Gate on accuracy.
  return correct >= (truth.size() - 200) * 95 / 100 ? 0 : 1;
}

int DemuxFile(const char* fastq_path, const std::string& barcode_list,
              int32_t k) {
  std::vector<std::string> barcode_ascii;
  std::string current;
  for (const char c : barcode_list + ",") {
    if (c == ',') {
      if (!current.empty()) barcode_ascii.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  const auto barcodes = bwtk::PatternSetTrie::Build(barcode_ascii);
  if (!barcodes.ok()) {
    std::fprintf(stderr, "bad barcode list: %s\n",
                 barcodes.status().ToString().c_str());
    return 1;
  }
  const auto records = bwtk::ReadFastqFile(fastq_path);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<bwtk::DnaCode>> reads;
  reads.reserve(records->size());
  for (const auto& record : *records) reads.push_back(record.sequence);
  const auto result =
      bwtk::DemuxReads(*barcodes, reads, {.max_mismatches = k});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < result->size(); ++i) {
    const bwtk::DemuxAssignment& a = (*result)[i];
    std::printf("%s\t%s\t%d\t%d\t%zu\n", (*records)[i].name.c_str(),
                OutcomeName(a.outcome), a.barcode, a.mismatches, a.position);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return Demo();
  if (argc == 3 || argc == 4) {
    const int32_t k = argc == 4 ? std::atoi(argv[3]) : 1;
    return DemuxFile(argv[1], argv[2], k);
  }
  std::fprintf(stderr,
               "usage: %s | %s reads.fq barcode1,barcode2,... [k]\n",
               argv[0], argv[0]);
  return 2;
}
