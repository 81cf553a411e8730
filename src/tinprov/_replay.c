/* Compiled replay kernels for the element policies (see _kernels.py).
 *
 * Parcels live in flat pools indexed by creation order.  The receipt kernel
 * threads them into per-vertex linked lists (a queue for FIFO, a stack with
 * its top at the head for LIFO); the generation-time kernel keeps per-vertex
 * binary heaps in one index arena.  The heap code follows CPython's heapq
 * step for step, so each heap has the layout the pure-Python engine builds.
 *
 * A self-interaction selects only among the parcels present before it: each
 * kernel parks the selection on a spare buffer (index nv) and moves it to the
 * destination, in selection order, once selection ends.
 *
 * Both kernels read the stream as one flat array of records, four doubles
 * each (source, dest, time, quantity).  They first check that every source
 * and dest is a vertex index in [0, nv), and return -2 without replaying
 * when one is not.  They end by writing every vertex's parcels in buffer
 * order, vertex by vertex, with counts[v] parcels for vertex v, and return
 * the number of live parcels, or -1 when memory runs out.
 *
 * The file is built as a Python extension module; the bindings at its end
 * take every array by address.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Append parcel j to d's buffer: at the tail (FIFO) or on top (LIFO). */
static void put(int64_t j, int64_t d, int lifo, int64_t *next, int64_t *head, int64_t *tail)
{
    if (lifo) {
        next[j] = head[d];
        head[d] = j;
    } else {
        next[j] = -1;
        if (tail[d] < 0)
            head[d] = j;
        else
            next[tail[d]] = j;
        tail[d] = j;
    }
}

/* Whether every record's source and dest lies in [0, nv); NaN does not. */
static int vertices_valid(int64_t n, const double *rec, int64_t nv)
{
    for (int64_t i = 0; i < 4 * n; i += 4)
        if (!(rec[i] >= 0 && rec[i] < nv && rec[i + 1] >= 0 && rec[i + 1] < nv))
            return 0;
    return 1;
}

/* Baseline total update shared by both kernels. */
static void settle(int64_t s, int64_t d, double rq, double *totals, double *generated,
                   double *cum_nb)
{
    double bs = totals[s];
    double q = rq < bs ? rq : bs;
    totals[s] = bs - q;
    totals[d] += rq;
    double nb = rq - q;
    if (nb > 0.0) {
        generated[s] += nb;
        *cum_nb += nb;
    }
}

static int64_t replay_receipt(int64_t n, const double *rec, int64_t nv, int lifo, double eps,
                              double *totals, double *generated, double *cum_nb,
                              int64_t *out_orig, double *out_qty, int64_t *counts)
{
    if (!vertices_valid(n, rec, nv))
        return -2;
    int64_t pcap = 2 * n + 1; /* at most one split and one newborn per interaction */
    int64_t *porig = malloc(pcap * sizeof *porig);
    double *pqty = malloc(pcap * sizeof *pqty);
    int64_t *next = malloc(pcap * sizeof *next);
    int64_t *head = malloc((nv + 1) * sizeof *head);
    int64_t *tail = malloc((nv + 1) * sizeof *tail);
    int64_t nalloc = 0;
    if (!porig || !pqty || !next || !head || !tail) {
        nalloc = -1;
        goto done;
    }
    for (int64_t v = 0; v <= nv; v++)
        head[v] = tail[v] = -1;
    for (const double *r = rec; r < rec + 4 * n; r += 4) {
        int64_t s = (int64_t)r[0], d = (int64_t)r[1];
        /* the spare list nv is always a queue, so it keeps selection order */
        int64_t to = s == d ? nv : d;
        int to_lifo = s == d ? 0 : lifo;
        double resq = r[3];
        while (resq > 0.0 && head[s] >= 0) {
            int64_t h = head[s];
            double tq = pqty[h];
            if (tq - resq > eps) {
                /* split: the remainder stays at the selected end */
                pqty[h] = tq - resq;
                int64_t j = nalloc++;
                porig[j] = porig[h];
                pqty[j] = resq;
                put(j, to, to_lifo, next, head, tail);
                resq = 0.0;
            } else {
                head[s] = next[h];
                if (head[s] < 0)
                    tail[s] = -1;
                put(h, to, to_lifo, next, head, tail);
                resq -= tq;
            }
        }
        while (head[nv] >= 0) {
            int64_t j = head[nv];
            head[nv] = next[j];
            put(j, d, lifo, next, head, tail);
        }
        tail[nv] = -1;
        if (resq > 0.0) {
            int64_t j = nalloc++;
            porig[j] = s;
            pqty[j] = resq;
            put(j, d, lifo, next, head, tail);
        }
        settle(s, d, r[3], totals, generated, cum_nb);
    }
    /* a LIFO list runs top to bottom, so it is written back to front */
    int64_t k = 0;
    for (int64_t v = 0; v < nv; v++) {
        int64_t m = 0;
        for (int64_t j = head[v]; j >= 0; j = next[j])
            m++;
        counts[v] = m;
        int64_t pos = lifo ? k + m - 1 : k, step = lifo ? -1 : 1;
        for (int64_t j = head[v]; j >= 0; j = next[j], pos += step) {
            out_orig[pos] = porig[j];
            out_qty[pos] = pqty[j];
        }
        k += m;
    }
done:
    free(porig);
    free(pqty);
    free(next);
    free(head);
    free(tail);
    return nalloc;
}

/* Parcel order: key, then origin, then creation sequence (heapq's list
 * order).  A parcel's sequence number is its pool index. */
typedef struct {
    const double *key;
    const int64_t *orig;
} order;

static int less(const order *o, int64_t a, int64_t b)
{
    if (o->key[a] != o->key[b])
        return o->key[a] < o->key[b];
    if (o->orig[a] != o->orig[b])
        return o->orig[a] < o->orig[b];
    return a < b;
}

/* heapq._siftdown: move the item at pos up towards the root. */
static void sift_toward_root(int64_t *h, int64_t pos, const order *o)
{
    int64_t item = h[pos];
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!less(o, item, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

/* heapq._siftup: sink the root to a leaf along smaller children, then back up. */
static void sift_from_root(int64_t *h, int64_t m, const order *o)
{
    int64_t item = h[0], pos = 0, child = 1;
    while (child < m) {
        if (child + 1 < m && !less(o, h[child], h[child + 1]))
            child++;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    sift_toward_root(h, pos, o);
}

typedef struct {
    int64_t *a, size, end; /* arena, its capacity, first unused slot */
    int64_t *off, *sz, *cap;
} arena;

/* heapq.heappop: remove the root of v's heap. */
static void pop(arena *A, int64_t v, const order *o)
{
    int64_t *h = A->a + A->off[v];
    int64_t m = --A->sz[v];
    if (m > 0) {
        h[0] = h[m];
        sift_from_root(h, m, o);
    }
}

/* Push parcel j onto d's heap, moving d's span to a doubled one when full. */
static int push(arena *A, int64_t d, int64_t j, const order *o)
{
    if (A->sz[d] == A->cap[d]) {
        int64_t newcap = A->cap[d] ? 2 * A->cap[d] : 4;
        if (A->end + newcap > A->size) {
            int64_t size = 2 * A->size + newcap;
            int64_t *grown = realloc(A->a, size * sizeof *grown);
            if (!grown)
                return -1;
            A->a = grown;
            A->size = size;
        }
        memcpy(A->a + A->end, A->a + A->off[d], A->sz[d] * sizeof *A->a);
        A->off[d] = A->end;
        A->cap[d] = newcap;
        A->end += newcap;
    }
    int64_t *h = A->a + A->off[d];
    h[A->sz[d]] = j;
    sift_toward_root(h, A->sz[d]++, o);
    return 0;
}

static int64_t replay_gentime(int64_t n, const double *rec, int64_t nv, double sign, double eps,
                              double *totals, double *generated, double *cum_nb,
                              int64_t *out_orig, double *out_birth, double *out_qty,
                              int64_t *out_seq, int64_t *counts)
{
    if (!vertices_valid(n, rec, nv))
        return -2;
    int64_t pcap = 2 * n + 1;
    int64_t *porig = malloc(pcap * sizeof *porig);
    double *pbirth = malloc(pcap * sizeof *pbirth);
    double *pkey = malloc(pcap * sizeof *pkey);
    double *pqty = malloc(pcap * sizeof *pqty);
    arena A = {NULL, 8 * n + 4 * nv + 64, 0, NULL, NULL, NULL};
    A.a = malloc(A.size * sizeof *A.a);
    A.off = calloc(nv + 1, sizeof *A.off);
    A.sz = calloc(nv + 1, sizeof *A.sz);
    A.cap = calloc(nv + 1, sizeof *A.cap);
    order o = {pkey, porig};
    int64_t nalloc = 0;
    if (!porig || !pbirth || !pkey || !pqty || !A.a || !A.off || !A.sz || !A.cap)
        goto fail;
    for (const double *r = rec; r < rec + 4 * n; r += 4) {
        int64_t s = (int64_t)r[0], d = (int64_t)r[1];
        int64_t to = s == d ? nv : d;
        double resq = r[3];
        while (resq > 0.0 && A.sz[s] > 0) {
            int64_t top = A.a[A.off[s]];
            double tq = pqty[top];
            if (tq - resq > eps) {
                /* split: the remainder keeps its heap slot at the source */
                pqty[top] = tq - resq;
                int64_t j = nalloc++;
                porig[j] = porig[top];
                pbirth[j] = pbirth[top];
                pkey[j] = pkey[top];
                pqty[j] = resq;
                resq = 0.0;
                top = j;
            } else {
                pop(&A, s, &o);
                resq -= tq;
            }
            if (push(&A, to, top, &o))
                goto fail;
        }
        /* the spare heap pops in selection order, which is ascending order */
        while (A.sz[nv] > 0) {
            int64_t j = A.a[A.off[nv]];
            pop(&A, nv, &o);
            if (push(&A, d, j, &o))
                goto fail;
        }
        if (resq > 0.0) {
            int64_t j = nalloc++;
            porig[j] = s;
            pbirth[j] = r[2];
            pkey[j] = sign * r[2];
            pqty[j] = resq;
            if (push(&A, d, j, &o))
                goto fail;
        }
        settle(s, d, r[3], totals, generated, cum_nb);
    }
    int64_t k = 0;
    for (int64_t v = 0; v < nv; v++) {
        counts[v] = A.sz[v];
        for (int64_t i = 0; i < A.sz[v]; i++, k++) {
            int64_t j = A.a[A.off[v] + i];
            out_orig[k] = porig[j];
            out_birth[k] = pbirth[j];
            out_qty[k] = pqty[j];
            out_seq[k] = j;
        }
    }
    goto done;
fail:
    nalloc = -1;
done:
    free(porig);
    free(pbirth);
    free(pkey);
    free(pqty);
    free(A.a);
    free(A.off);
    free(A.sz);
    free(A.cap);
    return nalloc;
}

/* Python bindings: the settings, then every array's address. */
#define ADDR(T, a) ((T *)(uintptr_t)(a))

static PyObject *py_replay_receipt(PyObject *self, PyObject *args)
{
    long long n, nv, r;
    int lifo;
    double eps;
    unsigned long long rec, tot, gen, nb, orig, qty, counts;
    if (!PyArg_ParseTuple(args, "LKLidKKKKKK", &n, &rec, &nv, &lifo, &eps, &tot, &gen, &nb, &orig,
                          &qty, &counts))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    r = replay_receipt(n, ADDR(const double, rec), nv, lifo, eps, ADDR(double, tot),
                       ADDR(double, gen), ADDR(double, nb), ADDR(int64_t, orig),
                       ADDR(double, qty), ADDR(int64_t, counts));
    Py_END_ALLOW_THREADS
    return PyLong_FromLongLong(r);
}

static PyObject *py_replay_gentime(PyObject *self, PyObject *args)
{
    long long n, nv, r;
    double sign, eps;
    unsigned long long rec, tot, gen, nb, orig, birth, qty, seq, counts;
    if (!PyArg_ParseTuple(args, "LKLddKKKKKKKK", &n, &rec, &nv, &sign, &eps, &tot, &gen, &nb,
                          &orig, &birth, &qty, &seq, &counts))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    r = replay_gentime(n, ADDR(const double, rec), nv, sign, eps, ADDR(double, tot),
                       ADDR(double, gen), ADDR(double, nb), ADDR(int64_t, orig),
                       ADDR(double, birth), ADDR(double, qty), ADDR(int64_t, seq),
                       ADDR(int64_t, counts));
    Py_END_ALLOW_THREADS
    return PyLong_FromLongLong(r);
}

static PyMethodDef methods[] = {
    {"replay_receipt", py_replay_receipt, METH_VARARGS, NULL},
    {"replay_gentime", py_replay_gentime, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_replay", NULL, -1, methods};

PyMODINIT_FUNC PyInit__replay(void)
{
    return PyModule_Create(&module);
}
